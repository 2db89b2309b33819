package graphbench

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/gas"
	"repro/internal/gasalgo"
	"repro/internal/graph"
	"repro/internal/graphdb"
	"repro/internal/mapreduce"
	"repro/internal/pregel"
	"repro/internal/pregelalgo"
)

// Ablation benchmarks: quantify the design choices the paper's
// analysis leans on. Each reports the ablated quantity through
// b.ReportMetric so `go test -bench=Ablation` prints the comparison.

func ablationGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	prof, err := datagen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return prof.GenerateScaled(20, 42)
}

// minLabelMRJob is a single CONN round used by the combiner ablation.
func minLabelMRJob(withCombiner bool) mapreduce.JobConfig {
	mapper := mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
		rec := v.(*algo.VertexRec)
		out.Emit(k, rec)
		msg := algo.LabelMsg{Label: rec.Label}
		for _, u := range rec.Both() {
			out.Emit(int64(u), msg)
		}
	})
	reducer := mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
		var rec *algo.VertexRec
		smallest := graph.VertexID(1 << 30)
		for _, v := range values {
			switch x := v.(type) {
			case *algo.VertexRec:
				rec = x
			case algo.LabelMsg:
				if x.Label < smallest {
					smallest = x.Label
				}
			}
		}
		if rec != nil {
			out.Emit(k, rec)
		}
	})
	cfg := mapreduce.JobConfig{Name: "conn-round", Mapper: mapper, Reducer: reducer}
	if withCombiner {
		cfg.Combiner = mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
			var best *algo.LabelMsg
			for _, v := range values {
				switch x := v.(type) {
				case *algo.VertexRec:
					out.Emit(k, x)
				case algo.LabelMsg:
					if best == nil || x.Label < best.Label {
						y := x
						best = &y
					}
				}
			}
			if best != nil {
				out.Emit(k, *best)
			}
		})
	}
	return cfg
}

// BenchmarkAblationHadoopCombiner measures how much a combiner shrinks
// the CONN shuffle (Hadoop tuning, Section 3.1).
func BenchmarkAblationHadoopCombiner(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	input := make(mapreduce.Dataset, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		input[v] = mapreduce.KV{Key: int64(v), Value: &algo.VertexRec{
			Out: g.Out(graph.VertexID(v)), Label: graph.VertexID(v),
		}}
	}
	for _, withCombiner := range []bool{false, true} {
		name := "off"
		if withCombiner {
			name = "on"
		}
		b.Run("combiner="+name, func(b *testing.B) {
			var shuffle int64
			for i := 0; i < b.N; i++ {
				e := mapreduce.New(cluster.DAS4(20, 1))
				_, stats, err := e.Run(minLabelMRJob(withCombiner), input, input.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				shuffle = stats.ShuffleBytes
			}
			b.ReportMetric(float64(shuffle), "shuffle-bytes")
		})
	}
}

// BenchmarkAblationStratosphereChannels compares the optimiser's
// network channels against forced file channels (Hadoop-style
// materialisation) for one CONN round.
func BenchmarkAblationStratosphereChannels(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	input := make(dataflow.Dataset, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		input[v] = dataflow.Record{Key: int64(v), Value: &algo.VertexRec{
			Out: g.Out(graph.VertexID(v)), Label: graph.VertexID(v),
		}}
	}
	round := func(e *dataflow.Engine) {
		p := dataflow.NewPlan("conn-round")
		src := p.Source("state", input, 0)
		msgs := p.Map("expand", src, func(in dataflow.Record, out *dataflow.Collector) {
			rec := in.Value.(*algo.VertexRec)
			for _, u := range rec.Both() {
				out.Collect(int64(u), algo.LabelMsg{Label: rec.Label})
			}
		}, dataflow.None)
		next := p.CoGroup("apply", src, msgs, func(key int64, left, right []dataflow.Record, out *dataflow.Collector) {
			for _, l := range left {
				out.Collect(key, l.Value)
			}
		}, dataflow.SameKey)
		p.Sink(next, false)
		if _, err := e.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
	for _, channel := range []struct {
		name   string
		forced *dataflow.ChannelType
	}{
		{"network", nil},
		{"file", ptr(dataflow.ChannelFile)},
	} {
		b.Run("channel="+channel.name, func(b *testing.B) {
			var shuffleSecs float64
			for i := 0; i < b.N; i++ {
				e := dataflow.New(cluster.DAS4(20, 1))
				e.ChannelForced = channel.forced
				round(e)
				shuffleSecs = cluster.StratosphereCosts().Time(e.Profile, cluster.DAS4(20, 1)).Shuffle
			}
			b.ReportMetric(shuffleSecs*1000, "shuffle-ms")
		})
	}
}

func ptr[T any](x T) *T { return &x }

// BenchmarkAblationGiraphCombiner measures the message-combiner's
// effect on Giraph's peak inbox for CONN.
func BenchmarkAblationGiraphCombiner(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	hw := cluster.DAS4(20, 1)
	for _, withCombiner := range []bool{false, true} {
		name := "off"
		if withCombiner {
			name = "on"
		}
		b.Run("combiner="+name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				cfg := pregel.Config{
					MaxSupersteps: 3,
					InitialValue: func(v graph.VertexID) pregel.Value {
						return labelValue{v}
					},
					Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
						cur := ctx.Value().(labelValue).l
						for _, m := range msgs {
							if l := m.(algo.LabelMsg).Label; l < cur {
								cur = l
							}
						}
						ctx.SetValue(labelValue{cur})
						ctx.SendToNeighbors(algo.LabelMsg{Label: cur})
					}),
				}
				if withCombiner {
					cfg.Combiner = minLabelCombiner{}
				}
				res, err := pregel.Run(g, hw, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakInboxBytes
			}
			b.ReportMetric(float64(peak), "peak-inbox-bytes")
		})
	}
}

type labelValue struct{ l graph.VertexID }

func (labelValue) Size() int64 { return 5 }

type minLabelCombiner struct{}

func (minLabelCombiner) Combine(a, b pregel.Message) pregel.Message {
	if a.(algo.LabelMsg).Label < b.(algo.LabelMsg).Label {
		return a
	}
	return b
}

// BenchmarkAblationGraphLabLoading compares the single-file loader
// against GraphLab(mp)'s pre-split loading (Section 4.3.1's fix).
func BenchmarkAblationGraphLabLoading(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "Friendster")
	hw := cluster.DAS4(20, 1)
	inputBytes := graph.TextSize(g)
	for _, mp := range []bool{false, true} {
		name := "single"
		if mp {
			name = "mp"
		}
		b.Run("loader="+name, func(b *testing.B) {
			var loadSecs float64
			for i := 0; i < b.N; i++ {
				profile := &cluster.ExecutionProfile{}
				src := algo.PickSource(g, 42)
				if _, _, err := gasalgo.BFS(g, hw, src, inputBytes, mp, profile); err != nil {
					b.Fatal(err)
				}
				loadSecs = cluster.GraphLabCosts().Time(profile, hw).Read
			}
			b.ReportMetric(loadSecs, "load-seconds")
		})
	}
}

// BenchmarkAblationGiraphDynamicComputation compares active-vertex BFS
// (Giraph's dynamic computation) against recomputing every vertex
// every superstep, the behaviour the generic platforms are stuck with.
func BenchmarkAblationGiraphDynamicComputation(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "Amazon")
	hw := cluster.DAS4(20, 1)
	src := algo.PickSource(g, 42)
	b.Run("dynamic=on", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			profile := &cluster.ExecutionProfile{}
			if _, _, err := pregelalgo.BFS(g, hw, src, 0, profile); err != nil {
				b.Fatal(err)
			}
			ops = profile.TotalOps()
		}
		b.ReportMetric(float64(ops), "compute-ops")
	})
	b.Run("dynamic=off", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			profile := &cluster.ExecutionProfile{}
			// Every vertex stays active every superstep: the frontier
			// advantage disappears.
			ref := algo.RefBFS(g, src)
			cfg := pregel.Config{
				MaxSupersteps: ref.Iterations + 1,
				InitialValue: func(v graph.VertexID) pregel.Value {
					if v == src {
						return labelValue{0}
					}
					return labelValue{1 << 30}
				},
				Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
					cur := ctx.Value().(labelValue).l
					for _, m := range msgs {
						if d := m.(algo.LabelMsg).Label + 1; d < cur {
							cur = d
						}
					}
					ctx.SetValue(labelValue{cur})
					if int64(cur) < 1<<30 {
						ctx.SendToNeighbors(algo.LabelMsg{Label: cur})
					}
					// No VoteToHalt: every vertex recomputes each round.
				}),
			}
			if _, err := pregel.Run(g, hw, cfg, profile); err != nil {
				b.Fatal(err)
			}
			ops = profile.TotalOps()
		}
		b.ReportMetric(float64(ops), "compute-ops")
	})
}

// BenchmarkAblationNeo4jCacheSize sweeps the Neo4j heap and reports
// the hot-run disk misses on a graph that stops fitting (the paper's
// Synth collapse).
func BenchmarkAblationNeo4jCacheSize(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "Synth")
	for _, heapGB := range []int64{1, 4, 20} {
		b.Run(fmt.Sprintf("heapGB=%d", heapGB), func(b *testing.B) {
			var misses int64
			for i := 0; i < b.N; i++ {
				cfg := graphdb.DefaultConfig()
				cfg.HeapBytes = heapGB << 30
				cfg.Projection = 36 * 20 // paper-scale Synth
				db := graphdb.Open(g, cfg)
				// Warm pass, then measure the hot pass.
				warm := db.NewRun()
				for v := graph.VertexID(0); v < graph.VertexID(g.NumVertices()); v++ {
					warm.Neighbors(v)
				}
				hot := db.NewRun()
				for v := graph.VertexID(0); v < graph.VertexID(g.NumVertices()); v++ {
					hot.Neighbors(v)
				}
				misses = hot.Misses
			}
			b.ReportMetric(float64(misses), "hot-misses")
		})
	}
}

// BenchmarkAblationGasSyncVsAsync compares GraphLab's synchronous
// engine (the paper's mode) against the asynchronous engine on CONN
// convergence work.
func BenchmarkAblationGasSyncVsAsync(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	hw := cluster.DAS4(20, 1)
	cfg := gas.Config{
		Program: connMinProgram{},
		InitialValue: func(v graph.VertexID) gas.Value {
			return connV{v}
		},
	}
	b.Run("mode=sync", func(b *testing.B) {
		var applies int64
		for i := 0; i < b.N; i++ {
			res, err := gas.Run(g, hw, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			applies = res.Stats.ApplyCalls
		}
		b.ReportMetric(float64(applies), "vertex-updates")
	})
	b.Run("mode=async", func(b *testing.B) {
		var applies int64
		for i := 0; i < b.N; i++ {
			res, err := gas.RunAsync(g, hw, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			applies = res.Stats.ApplyCalls
		}
		b.ReportMetric(float64(applies), "vertex-updates")
	})
}

type connV struct{ l graph.VertexID }

func (connV) Size() int64 { return 5 }

type connMinProgram struct{}

func (connMinProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	return srcVal.(connV)
}
func (connMinProgram) Sum(a, b gas.Accum) gas.Accum {
	if a.(connV).l < b.(connV).l {
		return a
	}
	return b
}
func (connMinProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	if acc == nil {
		return old
	}
	if m := acc.(connV); m.l < old.(connV).l {
		return m
	}
	return old
}
func (connMinProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	return newVal.(connV).l < dstVal.(connV).l
}

// BenchmarkAblationGiraphCheckpointing measures the simulated cost of
// Giraph's periodic fault-tolerance checkpoints.
func BenchmarkAblationGiraphCheckpointing(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	hw := cluster.DAS4(20, 1)
	for _, every := range []int{0, 1, 5} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				profile := &cluster.ExecutionProfile{}
				src := algo.PickSource(g, 42)
				cfg := pregelBFSConfig(src)
				cfg.CheckpointEvery = every
				if _, err := pregel.Run(g, hw, cfg, profile); err != nil {
					b.Fatal(err)
				}
				secs = cluster.GiraphCosts().Time(profile, hw).Total
			}
			b.ReportMetric(secs, "sim-seconds")
		})
	}
}

// pregelBFSConfig is a minimal BFS program for the checkpoint ablation.
func pregelBFSConfig(src graph.VertexID) pregel.Config {
	return pregel.Config{
		InitialValue: func(v graph.VertexID) pregel.Value {
			if v == src {
				return labelValue{0}
			}
			return labelValue{1 << 30}
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			cur := ctx.Value().(labelValue).l
			best := graph.VertexID(1 << 30)
			for _, m := range msgs {
				if d := m.(algo.LabelMsg).Label; d < best {
					best = d
				}
			}
			if ctx.Superstep() == 0 && cur == 0 {
				ctx.SendToNeighbors(algo.LabelMsg{Label: 1})
			} else if best < cur {
				ctx.SetValue(labelValue{best})
				ctx.SendToNeighbors(algo.LabelMsg{Label: best + 1})
			}
			ctx.VoteToHalt()
		}),
	}
}

// BenchmarkAblationHadoopSortBuffer sweeps the map-side sort buffer:
// the paper configures 1.5 GB so its jobs never spill; smaller buffers
// pay extra disk I/O.
func BenchmarkAblationHadoopSortBuffer(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	input := make(mapreduce.Dataset, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		input[v] = mapreduce.KV{Key: int64(v), Value: &algo.VertexRec{
			Out: g.Out(graph.VertexID(v)), Label: graph.VertexID(v),
		}}
	}
	for _, bufKB := range []int64{0, 64, 16} {
		name := "1.5GB-default"
		if bufKB > 0 {
			name = fmt.Sprintf("%dKB", bufKB)
		}
		b.Run("buffer="+name, func(b *testing.B) {
			var spill int64
			for i := 0; i < b.N; i++ {
				e := mapreduce.New(cluster.DAS4(20, 1))
				if bufKB > 0 {
					e.SortBufferBytes = bufKB << 10
				}
				_, stats, err := e.Run(minLabelMRJob(false), input, input.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				spill = stats.SpillBytes
			}
			b.ReportMetric(float64(spill), "spill-bytes")
		})
	}
}
