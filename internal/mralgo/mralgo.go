// Package mralgo implements the paper's five algorithms as MapReduce
// job sequences for the Hadoop-model engine (the same code runs under
// YARN's ApplicationMaster). The implementations follow the structure
// the paper describes: iterative algorithms run one full MapReduce job
// per iteration with the complete graph state materialised to the DFS
// in between — the reason Hadoop loses every comparison — and EVO
// needs two jobs per iteration (Section 4.1.3). Every job moves one
// record type, algo.Rec, by value; adjacency rides as spans into the
// run's algo.Adjacency.
package mralgo

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// dataset is the record dataset every job of a run moves.
type dataset = partition.Dataset[algo.Rec]

// emitter is a job's output collector.
type emitter = mapreduce.Emitter[algo.Rec]

// Stats runs STATS as a single MapReduce job: every vertex ships its
// out-list to its whole neighbourhood; reducers intersect and count.
func Stats(e *mapreduce.Engine, g *graph.Graph) (algo.StatsResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	cfg := mapreduce.JobConfig[algo.Rec]{
		Name: "stats",
		Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
			out.Emit(k, rec)
			list := algo.ListRec(rec.Out)
			for _, u := range algo.NeighborhoodOf(adj.Out(rec), adj.In(rec)) {
				out.Emit(int64(u), list)
			}
		}),
		Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
			// The neighbourhood is marked before any list is counted, so
			// the vertex record is found first.
			i := slices.IndexFunc(values, func(v algo.Rec) bool { return v.Kind == algo.KindVertex })
			if i < 0 {
				return
			}
			rec := values[i]
			nbrs := algo.NeighborhoodOf(adj.Out(rec), adj.In(rec))
			lc := algo.AcquireLinkCounter(g.NumVertices(), nbrs)
			var links int64
			for _, v := range values {
				if v.Kind == algo.KindList {
					list := adj.Out(v)
					links += lc.Links(list)
					out.Charge(2 * int64(len(nbrs)+len(list)))
				}
			}
			lc.Release()
			lcc := algo.LCCOf(links, len(nbrs))
			out.Incr("vertices", 1)
			out.Incr("out-edges", int64(rec.Out.Len))
			out.Incr("lccE12", int64(lcc*1e12))
		}),
	}
	_, stats, err := mapreduce.Run(e, cfg, input, input.Bytes())
	if err != nil {
		return algo.StatsResult{}, err
	}
	vcount := stats.Counters.Get("vertices")
	edges := stats.Counters.Get("out-edges")
	if !g.Directed() {
		edges /= 2
	}
	res := algo.StatsResult{Vertices: vcount, Edges: edges}
	if vcount > 0 {
		res.AvgLCC = float64(stats.Counters.Get("lccE12")) / 1e12 / float64(vcount)
	}
	e.Profile.Iterations = 1
	return res, nil
}

// BFS runs level-synchronous breadth-first search, one job per level:
// each job re-reads the whole vertex dataset, expands the frontier,
// and writes the whole dataset back (the Hadoop iteration tax).
func BFS(e *mapreduce.Engine, g *graph.Graph, src graph.VertexID) (algo.BFSResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	input[src].Value.Dist = 0

	level := int64(0)
	iterations := 0
	for {
		lv := level
		cfg := mapreduce.JobConfig[algo.Rec]{
			Name: fmt.Sprintf("bfs-%d", level),
			Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
				out.Emit(k, rec)
				if rec.Dist == lv {
					for _, u := range adj.Out(rec) {
						out.Emit(int64(u), algo.DistRec(lv+1))
					}
				}
			}),
			Combiner: minDistCombiner{},
			Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
				var rec algo.Rec
				best := int64(-1)
				for _, v := range values {
					switch {
					case v.Kind == algo.KindVertex:
						rec = v
					case v.Kind == algo.KindDist && (best < 0 || v.Dist < best):
						best = v.Dist
					}
				}
				if rec.Kind != algo.KindVertex {
					return
				}
				if best >= 0 && rec.Dist < 0 {
					rec.Dist = best
					out.Incr("updated", 1)
				}
				out.Emit(k, rec)
			}),
		}
		output, stats, err := mapreduce.Run(e, cfg, input, input.Bytes())
		if err != nil {
			return algo.BFSResult{}, err
		}
		iterations++
		input = output
		if stats.Counters.Get("updated") == 0 {
			break
		}
		level++
	}
	e.Profile.Iterations = iterations
	return algo.BFSOf(algo.Dists[int32](input, g.NumVertices())), nil
}

// minDistCombiner keeps only the smallest distance candidate per key,
// passing the vertex record through.
type minDistCombiner struct{}

func (minDistCombiner) Reduce(k int64, values []algo.Rec, out *emitter) {
	best := int64(-1)
	for _, v := range values {
		switch v.Kind {
		case algo.KindVertex:
			out.Emit(k, v)
		case algo.KindDist:
			if best < 0 || v.Dist < best {
				best = v.Dist
			}
		}
	}
	if best >= 0 {
		out.Emit(k, algo.DistRec(best))
	}
}

// SSSP runs weighted single-source shortest paths as synchronous
// Bellman-Ford, one job per relaxation round: records whose distance
// improved in the previous round (Frontier) relax their out-arcs,
// reducers keep the minimum candidate, and the loop ends on a round
// with no improvements. Integer weights make the distances exact and
// byte-identical to the sequential reference.
func SSSP(e *mapreduce.Engine, g *graph.Graph, src graph.VertexID) (algo.SSSPResult, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, fmt.Errorf("mralgo: SSSP requires a weighted graph")
	}
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, true)
	input[src].Value.Dist = 0
	input[src].Value.Frontier = true

	iterations := 0
	for {
		cfg := mapreduce.JobConfig[algo.Rec]{
			Name: fmt.Sprintf("sssp-%d", iterations),
			Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
				out.Emit(k, rec)
				if rec.Dist >= 0 && rec.Frontier {
					ws := adj.Weights(rec)
					for i, u := range adj.Out(rec) {
						out.Emit(int64(u), algo.WDistRec(rec.Dist+int64(ws[i])))
					}
				}
			}),
			Combiner: minWDistCombiner{},
			Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
				var rec algo.Rec
				best := int64(-1)
				for _, v := range values {
					switch {
					case v.Kind == algo.KindVertex:
						rec = v
					case v.Kind == algo.KindWDist && (best < 0 || v.Dist < best):
						best = v.Dist
					}
				}
				if rec.Kind != algo.KindVertex {
					return
				}
				switch {
				case best >= 0 && (rec.Dist < 0 || best < rec.Dist):
					rec.Dist = best
					rec.Frontier = true
					out.Incr("updated", 1)
				case rec.Frontier:
					// Leave the frontier: this record relaxed its arcs in
					// the round that just ran.
					rec.Frontier = false
				}
				out.Emit(k, rec)
			}),
		}
		output, stats, err := mapreduce.Run(e, cfg, input, input.Bytes())
		if err != nil {
			return algo.SSSPResult{}, err
		}
		iterations++
		input = output
		if stats.Counters.Get("updated") == 0 {
			break
		}
	}
	e.Profile.Iterations = iterations
	return algo.SSSPOf(algo.Dists[int64](input, g.NumVertices()), iterations), nil
}

// minWDistCombiner keeps only the smallest weighted-distance candidate
// per key, passing the vertex record through.
type minWDistCombiner struct{}

func (minWDistCombiner) Reduce(k int64, values []algo.Rec, out *emitter) {
	best := int64(-1)
	for _, v := range values {
		switch v.Kind {
		case algo.KindVertex:
			out.Emit(k, v)
		case algo.KindWDist:
			if best < 0 || v.Dist < best {
				best = v.Dist
			}
		}
	}
	if best >= 0 {
		out.Emit(k, algo.WDistRec(best))
	}
}

// Conn runs the cloud-based connected components of Wu & Du: min-label
// propagation, one job per round, until a fixed point.
func Conn(e *mapreduce.Engine, g *graph.Graph) (algo.ConnResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	iterations := 0
	for {
		output, stats, err := mapreduce.Run(e, connJob(adj, iterations), input, input.Bytes())
		if err != nil {
			return algo.ConnResult{}, err
		}
		iterations++
		input = output
		if stats.Counters.Get("changed") == 0 {
			break
		}
	}
	e.Profile.Iterations = iterations
	labels := algo.Labels(input, g.NumVertices())
	return algo.ConnResult{Labels: labels, Components: algo.CountLabels(labels), Iterations: iterations}, nil
}

// connJob is CONN's round-th job: every vertex votes its label to its
// neighbours and keeps the smallest label it hears.
func connJob(adj *algo.Adjacency, round int) mapreduce.JobConfig[algo.Rec] {
	return mapreduce.JobConfig[algo.Rec]{
		Name: fmt.Sprintf("conn-%d", round),
		Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
			out.Emit(k, rec)
			emitToBoth(adj, rec, algo.LabelRec(rec.Label, 0), out)
		}),
		Combiner: minLabelCombiner{},
		Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
			var rec algo.Rec
			smallest := graph.VertexID(math.MaxInt32)
			for _, v := range values {
				switch {
				case v.Kind == algo.KindVertex:
					rec = v
				case v.Kind == algo.KindLabel && v.Label < smallest:
					smallest = v.Label
				}
			}
			if rec.Kind != algo.KindVertex {
				return
			}
			if smallest < rec.Label {
				rec.Label = smallest
				out.Incr("changed", 1)
			}
			out.Emit(k, rec)
		}),
	}
}

// emitToBoth emits msg to every out- then in-neighbour of rec.
func emitToBoth(adj *algo.Adjacency, rec, msg algo.Rec, out *emitter) {
	for _, u := range adj.Out(rec) {
		out.Emit(int64(u), msg)
	}
	for _, u := range adj.In(rec) {
		out.Emit(int64(u), msg)
	}
}

// minLabelCombiner keeps the smallest label vote per key.
type minLabelCombiner struct{}

func (minLabelCombiner) Reduce(k int64, values []algo.Rec, out *emitter) {
	var best algo.Rec
	found := false
	for _, v := range values {
		switch v.Kind {
		case algo.KindVertex:
			out.Emit(k, v)
		case algo.KindLabel:
			if !found || v.Label < best.Label {
				best, found = v, true
			}
		}
	}
	if found {
		out.Emit(k, best)
	}
}

// CD runs Leung et al. community detection: one job per round, at most
// p.CDMaxIterations rounds. No combiner is possible — the reducer
// needs every neighbour's (label, score) vote.
func CD(e *mapreduce.Engine, g *graph.Graph, p algo.Params) (algo.CDResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	for i := range input {
		input[i].Value.Score = p.CDInitialScore
	}
	iterations := 0
	for iterations < p.CDMaxIterations {
		cfg := mapreduce.JobConfig[algo.Rec]{
			Name: fmt.Sprintf("cd-%d", iterations),
			Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
				out.Emit(k, rec)
				emitToBoth(adj, rec, algo.LabelRec(rec.Label, rec.Score), out)
			}),
			Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
				var rec algo.Rec
				votes := make([]algo.LabelMsg, 0, len(values))
				for _, v := range values {
					switch v.Kind {
					case algo.KindVertex:
						rec = v
					case algo.KindLabel:
						votes = append(votes, algo.LabelMsg{Label: v.Label, Score: v.Score})
					}
				}
				if rec.Kind != algo.KindVertex {
					return
				}
				l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation)
				if !ok {
					out.Emit(k, rec)
					return
				}
				if l != rec.Label {
					out.Incr("changed", 1)
				}
				rec.Label, rec.Score = l, s
				out.Emit(k, rec)
			}),
		}
		output, stats, err := mapreduce.Run(e, cfg, input, input.Bytes())
		if err != nil {
			return algo.CDResult{}, err
		}
		iterations++
		input = output
		if stats.Counters.Get("changed") == 0 {
			break
		}
	}
	e.Profile.Iterations = iterations
	labels := algo.Labels(input, g.NumVertices())
	return algo.CDResult{Labels: labels, Communities: algo.CountLabels(labels), Iterations: iterations}, nil
}

// EVO runs Forest Fire evolution. As the paper notes, Hadoop needs two
// MapReduce jobs per iteration: one to integrate the new burn edges
// into the adjacency records, and one to recount the graph for the
// driver's convergence/statistics check.
func EVO(e *mapreduce.Engine, g *graph.Graph, p algo.Params) (algo.EVOResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	ov := algo.NewOverlay(g)

	for it, batch := range algo.BatchSizes(g.NumVertices(), p) {
		// The driver computes the burns from the current overlay
		// (lookups against the materialised dataset).
		var newEdges []graph.Edge
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := algo.ForestFireBurn(newID, int(newID), p, ov.Neighbors)
			ov.AddEdges(edges)
			newEdges = append(newEdges, edges...)
		}

		// Job 1: integrate the new edges into the vertex records.
		edgeData := make(dataset, 0, len(newEdges)*2)
		for _, ed := range newEdges {
			edgeData = append(edgeData,
				partition.Record[algo.Rec]{Key: int64(ed.Src), Value: algo.EdgeRec(ed)},
				partition.Record[algo.Rec]{Key: int64(ed.Dst), Value: algo.EdgeRec(ed)})
		}
		integrate := mapreduce.JobConfig[algo.Rec]{
			Name: fmt.Sprintf("evo-merge-%d", it),
			Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, v algo.Rec, out *emitter) {
				out.Emit(k, v)
			}),
			Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
				// A vertex the burns created has no record yet.
				rec := algo.Rec{Kind: algo.KindVertex, Dist: -1, Label: graph.VertexID(k)}
				var outAdd, inAdd []graph.VertexID
				for _, v := range values {
					if v.Kind == algo.KindVertex {
						rec = v
					} else if ed := v.Edge(); int64(ed.Src) == k {
						outAdd = append(outAdd, ed.Dst)
					} else {
						inAdd = append(inAdd, ed.Src)
					}
				}
				out.Emit(k, adj.Extend(rec, outAdd, inAdd))
			}),
		}
		combined := make(dataset, 0, len(input)+len(edgeData))
		combined = append(append(combined, input...), edgeData...)
		output, _, err := mapreduce.Run(e, integrate, combined, combined.Bytes())
		if err != nil {
			return algo.EVOResult{}, err
		}
		input = output

		// Job 2: recount vertices and edges (the extra
		// convergence-check job Hadoop pays for).
		count := mapreduce.JobConfig[algo.Rec]{
			Name: fmt.Sprintf("evo-count-%d", it),
			Mapper: mapreduce.MapperFunc[algo.Rec](func(k int64, rec algo.Rec, out *emitter) {
				out.Emit(0, algo.CountRec(1, int64(rec.Out.Len), 0))
			}),
			Combiner: sumCountCombiner{},
			Reducer: mapreduce.ReducerFunc[algo.Rec](func(k int64, values []algo.Rec, out *emitter) {
				vertices, edges := sumCounts(values)
				out.Incr("V", vertices)
				out.Incr("E", edges)
			}),
		}
		if _, _, err := mapreduce.Run(e, count, input, input.Bytes()); err != nil {
			return algo.EVOResult{}, err
		}
	}
	e.Profile.Iterations = p.EVOIterations
	return ov.Result(), nil
}

// sumCounts totals the vertices and edges of a group's count records.
func sumCounts(values []algo.Rec) (vertices, edges int64) {
	for _, v := range values {
		if v.Kind == algo.KindCount {
			vs, es, _ := v.Count()
			vertices += vs
			edges += es
		}
	}
	return vertices, edges
}

// sumCountCombiner pre-aggregates count records.
type sumCountCombiner struct{}

func (sumCountCombiner) Reduce(k int64, values []algo.Rec, out *emitter) {
	vertices, edges := sumCounts(values)
	out.Emit(k, algo.CountRec(vertices, edges, 0))
}
