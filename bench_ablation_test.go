package graphbench

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gasalgo"
	"repro/internal/graph"
	"repro/internal/graphdb"
	"repro/internal/mapreduce"
	"repro/internal/partition"
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
func minLabelMRJob(adj *algo.Adjacency, withCombiner bool) mapreduce.JobConfig[algo.Rec] {
	mapper := mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *mapreduce.Emitter[algo.Rec]) {
		out.Emit(k, rec)
		msg := algo.LabelRec(rec.Label, 0)
		for _, u := range adj.Out(rec) {
			out.Emit(int64(u), msg)
		}
		for _, u := range adj.In(rec) {
			out.Emit(int64(u), msg)
		}
	})
	reducer := mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *mapreduce.Emitter[algo.Rec]) {
		for _, v := range values {
			if v.Kind == algo.KindVertex {
				out.Emit(k, v)
				return
			}
		}
	})
	cfg := mapreduce.JobConfig[algo.Rec]{Name: "conn-round", Mapper: mapper, Reducer: reducer}
	if withCombiner {
		cfg.Combiner = mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *mapreduce.Emitter[algo.Rec]) {
			var best algo.Rec
			for _, v := range values {
				switch v.Kind {
				case algo.KindVertex:
					out.Emit(k, v)
				case algo.KindLabel:
					if best.Kind == 0 || v.Label < best.Label {
						best = v
					}
				}
			}
			if best.Kind != 0 {
				out.Emit(k, best)
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
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	for _, withCombiner := range []bool{false, true} {
		name := "off"
		if withCombiner {
			name = "on"
		}
		b.Run("combiner="+name, func(b *testing.B) {
			var shuffle int64
			for i := 0; i < b.N; i++ {
				e := mapreduce.New(cluster.DAS4(20, 1))
				_, stats, err := mapreduce.Run(e, minLabelMRJob(adj, withCombiner), input, input.Bytes())
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
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	type (
		record    = partition.Record[algo.Rec]
		collector = dataflow.Collector[algo.Rec]
	)
	round := func(e *dataflow.Engine) {
		p := dataflow.NewPlan[algo.Rec]("conn-round")
		src := p.Source("state", input, 0)
		msgs := p.Map("expand", src, func(in record, out *collector) {
			msg := algo.LabelRec(in.Value.Label, 0)
			for _, u := range adj.Out(in.Value) {
				out.Collect(int64(u), msg)
			}
			for _, u := range adj.In(in.Value) {
				out.Collect(int64(u), msg)
			}
		}, dataflow.None)
		next := p.CoGroup("apply", src, msgs, func(key int64, left, right []record, out *collector) {
			for _, l := range left {
				out.Collect(key, l.Value)
			}
		}, dataflow.SameKey)
		p.Sink(next, false)
		if _, err := dataflow.Execute(e, p); err != nil {
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
				cfg := pregel.Config[labelValue, algo.LabelMsg]{
					MaxSupersteps: 3,
					InitialValue: func(v graph.VertexID) labelValue {
						return labelValue{v}
					},
					Program: func(ctx *pregel.Context[labelValue, algo.LabelMsg], msgs []algo.LabelMsg) {
						cur := ctx.Value().l
						for _, m := range msgs {
							if m.Label < cur {
								cur = m.Label
							}
						}
						ctx.SetValue(labelValue{cur})
						ctx.SendToNeighbors(algo.LabelMsg{Label: cur})
					},
				}
				if withCombiner {
					cfg.Combine = minLabel
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

// minLabel folds label votes to the smallest label.
func minLabel(dst *algo.LabelMsg, m algo.LabelMsg) {
	if m.Label <= dst.Label {
		*dst = m
	}
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
			cfg := pregel.Config[labelValue, algo.LabelMsg]{
				MaxSupersteps: ref.Iterations + 1,
				InitialValue: func(v graph.VertexID) labelValue {
					if v == src {
						return labelValue{0}
					}
					return labelValue{1 << 30}
				},
				Program: func(ctx *pregel.Context[labelValue, algo.LabelMsg], msgs []algo.LabelMsg) {
					cur := ctx.Value().l
					for _, m := range msgs {
						if d := m.Label + 1; d < cur {
							cur = d
						}
					}
					ctx.SetValue(labelValue{cur})
					if int64(cur) < 1<<30 {
						ctx.SendToNeighbors(algo.LabelMsg{Label: cur})
					}
					// No VoteToHalt: every vertex recomputes each round.
				},
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
				profile := &cluster.ExecutionProfile{Fault: fault.New(fault.Plan{CheckpointEvery: every}, nil)}
				src := algo.PickSource(g, 42)
				if _, err := pregel.Run(g, hw, pregelBFSConfig(src), profile); err != nil {
					b.Fatal(err)
				}
				secs = cluster.GiraphCosts().Time(profile, hw).Total
			}
			b.ReportMetric(secs, "sim-seconds")
		})
	}
}

// pregelBFSConfig is a minimal BFS program for the checkpoint ablation.
func pregelBFSConfig(src graph.VertexID) pregel.Config[labelValue, algo.LabelMsg] {
	return pregel.Config[labelValue, algo.LabelMsg]{
		InitialValue: func(v graph.VertexID) labelValue {
			if v == src {
				return labelValue{0}
			}
			return labelValue{1 << 30}
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: func(ctx *pregel.Context[labelValue, algo.LabelMsg], msgs []algo.LabelMsg) {
			cur := ctx.Value().l
			best := graph.VertexID(1 << 30)
			for _, m := range msgs {
				if d := m.Label; d < best {
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
		},
	}
}

// BenchmarkAblationHadoopSortBuffer sweeps the map-side sort buffer:
// the paper configures 1.5 GB so its jobs never spill; smaller buffers
// pay extra disk I/O.
func BenchmarkAblationHadoopSortBuffer(b *testing.B) {
	b.ReportAllocs()
	g := ablationGraph(b, "KGS")
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
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
				_, stats, err := mapreduce.Run(e, minLabelMRJob(adj, false), input, input.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				spill = stats.SpillBytes
			}
			b.ReportMetric(float64(spill), "spill-bytes")
		})
	}
}
