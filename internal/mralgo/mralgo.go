// Package mralgo implements the paper's five algorithms as MapReduce
// job sequences for the Hadoop-model engine (the same code runs under
// YARN's ApplicationMaster). The implementations follow the structure
// the paper describes: iterative algorithms run one full MapReduce job
// per iteration with the complete graph state materialised to the DFS
// in between — the reason Hadoop loses every comparison — and EVO
// needs two jobs per iteration (Section 4.1.3).
package mralgo

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// BuildDataset converts a graph into the vertex-record dataset stored
// on the DFS: one record per vertex in the paper's vertex-line layout.
func BuildDataset(g *graph.Graph) mapreduce.Dataset {
	n := g.NumVertices()
	d := make(mapreduce.Dataset, n)
	for v := 0; v < n; v++ {
		rec := &algo.VertexRec{
			Out:   g.Out(graph.VertexID(v)),
			Dist:  -1,
			Label: graph.VertexID(v),
		}
		if g.Directed() {
			rec.In = g.In(graph.VertexID(v))
		}
		d[v] = mapreduce.KV{Key: int64(v), Value: rec}
	}
	return d
}

// findRec extracts the vertex record from a reduce group.
func findRec(values []mapreduce.Value) *algo.VertexRec {
	for _, v := range values {
		if rec, ok := v.(*algo.VertexRec); ok {
			return rec
		}
	}
	return nil
}

// Stats runs STATS as a single MapReduce job: every vertex ships its
// out-list to its whole neighbourhood; reducers intersect and count.
func Stats(e *mapreduce.Engine, g *graph.Graph) (algo.StatsResult, error) {
	input := BuildDataset(g)
	cfg := mapreduce.JobConfig{
		Name: "stats",
		Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
			rec := v.(*algo.VertexRec)
			out.Emit(k, rec)
			var list mapreduce.Value = algo.ListMsg(rec.Out)
			for _, u := range algo.NeighborhoodOf(rec) {
				out.Emit(int64(u), list)
			}
		}),
		Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
			rec := findRec(values)
			if rec == nil {
				return
			}
			nbrs := algo.NeighborhoodOf(rec)
			lc := algo.AcquireLinkCounter(g.NumVertices(), nbrs)
			var links int64
			for _, v := range values {
				if list, ok := v.(algo.ListMsg); ok {
					links += lc.Links(list)
					out.Charge(2 * int64(len(nbrs)+len(list)))
				}
			}
			lc.Release()
			lcc := algo.LCCOf(links, len(nbrs))
			out.Incr("vertices", 1)
			out.Incr("out-edges", int64(len(rec.Out)))
			out.Incr("lccE12", int64(lcc*1e12))
		}),
	}
	_, stats, err := e.Run(cfg, input, input.Bytes())
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
	input := BuildDataset(g)
	srcRec := input[src].Value.(*algo.VertexRec).Clone()
	srcRec.Dist = 0
	input[src] = mapreduce.KV{Key: int64(src), Value: srcRec}

	level := int32(0)
	iterations := 0
	for {
		lv := level
		cfg := mapreduce.JobConfig{
			Name: fmt.Sprintf("bfs-%d", level),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				rec := v.(*algo.VertexRec)
				out.Emit(k, rec)
				if rec.Dist == lv {
					for _, u := range rec.Out {
						out.Emit(int64(u), algo.DistMsg(lv+1))
					}
				}
			}),
			Combiner: minDistCombiner{},
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				rec := findRec(values)
				if rec == nil {
					return
				}
				best := int32(-1)
				for _, v := range values {
					if d, ok := v.(algo.DistMsg); ok && (best < 0 || int32(d) < best) {
						best = int32(d)
					}
				}
				if best >= 0 && rec.Dist < 0 {
					rec = rec.Clone()
					rec.Dist = best
					out.Incr("updated", 1)
				}
				out.Emit(k, rec)
			}),
		}
		output, stats, err := e.Run(cfg, input, input.Bytes())
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
	return collectBFS(input, g.NumVertices()), nil
}

// minDistCombiner keeps only the smallest distance candidate per key,
// passing the vertex record through.
type minDistCombiner struct{}

func (minDistCombiner) Reduce(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
	best := int32(-1)
	for _, v := range values {
		switch x := v.(type) {
		case *algo.VertexRec:
			out.Emit(k, x)
		case algo.DistMsg:
			if best < 0 || int32(x) < best {
				best = int32(x)
			}
		}
	}
	if best >= 0 {
		out.Emit(k, algo.DistMsg(best))
	}
}

func collectBFS(d mapreduce.Dataset, n int) algo.BFSResult {
	res := algo.BFSResult{Levels: make([]int32, n)}
	for i := range res.Levels {
		res.Levels[i] = -1
	}
	maxLevel := int32(0)
	for _, kv := range d {
		rec, ok := kv.Value.(*algo.VertexRec)
		if !ok {
			continue
		}
		res.Levels[kv.Key] = rec.Dist
		if rec.Dist >= 0 {
			res.Visited++
			if rec.Dist > maxLevel {
				maxLevel = rec.Dist
			}
		}
	}
	res.Iterations = int(maxLevel)
	return res
}

// BuildWeightedDataset converts a weighted graph into vertex records
// that carry per-arc weights alongside the out-lists, for the SSSP
// jobs.
func BuildWeightedDataset(g *graph.Graph) mapreduce.Dataset {
	n := g.NumVertices()
	d := make(mapreduce.Dataset, n)
	for v := 0; v < n; v++ {
		rec := &algo.VertexRec{
			Out:   g.Out(graph.VertexID(v)),
			WOut:  g.OutWeights(graph.VertexID(v)),
			Dist:  -1,
			DistW: -1,
			Label: graph.VertexID(v),
		}
		if g.Directed() {
			rec.In = g.In(graph.VertexID(v))
		}
		d[v] = mapreduce.KV{Key: int64(v), Value: rec}
	}
	return d
}

// SSSP runs weighted single-source shortest paths as synchronous
// Bellman-Ford, one job per relaxation round: records whose distance
// improved in the previous round (WRound == 1) relax their out-arcs,
// reducers keep the minimum candidate, and the loop ends on a round
// with no improvements. Integer weights make the distances exact and
// byte-identical to the sequential reference.
func SSSP(e *mapreduce.Engine, g *graph.Graph, src graph.VertexID) (algo.SSSPResult, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, fmt.Errorf("mralgo: SSSP requires a weighted graph")
	}
	input := BuildWeightedDataset(g)
	srcRec := input[src].Value.(*algo.VertexRec).Clone()
	srcRec.DistW = 0
	srcRec.WRound = 1
	input[src] = mapreduce.KV{Key: int64(src), Value: srcRec}

	iterations := 0
	for {
		cfg := mapreduce.JobConfig{
			Name: fmt.Sprintf("sssp-%d", iterations),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				rec := v.(*algo.VertexRec)
				out.Emit(k, rec)
				if rec.DistW >= 0 && rec.WRound == 1 {
					for i, u := range rec.Out {
						out.Emit(int64(u), algo.WDistMsg(rec.DistW+int64(rec.WOut[i])))
					}
				}
			}),
			Combiner: minWDistCombiner{},
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				rec := findRec(values)
				if rec == nil {
					return
				}
				best := int64(-1)
				for _, v := range values {
					if d, ok := v.(algo.WDistMsg); ok && (best < 0 || int64(d) < best) {
						best = int64(d)
					}
				}
				switch {
				case best >= 0 && (rec.DistW < 0 || best < rec.DistW):
					rec = rec.Clone()
					rec.DistW = best
					rec.WRound = 1
					out.Incr("updated", 1)
				case rec.WRound == 1:
					// Leave the frontier: this record relaxed its arcs in
					// the round that just ran.
					rec = rec.Clone()
					rec.WRound = 0
				}
				out.Emit(k, rec)
			}),
		}
		output, stats, err := e.Run(cfg, input, input.Bytes())
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
	res := algo.SSSPResult{Dist: make([]int64, g.NumVertices()), Iterations: iterations}
	for i := range res.Dist {
		res.Dist[i] = -1
	}
	for _, kv := range input {
		if rec, ok := kv.Value.(*algo.VertexRec); ok {
			res.Dist[kv.Key] = rec.DistW
			if rec.DistW >= 0 {
				res.Visited++
			}
		}
	}
	return res, nil
}

// minWDistCombiner keeps only the smallest weighted-distance candidate
// per key, passing the vertex record through.
type minWDistCombiner struct{}

func (minWDistCombiner) Reduce(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
	best := int64(-1)
	for _, v := range values {
		switch x := v.(type) {
		case *algo.VertexRec:
			out.Emit(k, x)
		case algo.WDistMsg:
			if best < 0 || int64(x) < best {
				best = int64(x)
			}
		}
	}
	if best >= 0 {
		out.Emit(k, algo.WDistMsg(best))
	}
}

// Conn runs the cloud-based connected components of Wu & Du: min-label
// propagation, one job per round, until a fixed point.
func Conn(e *mapreduce.Engine, g *graph.Graph) (algo.ConnResult, error) {
	input := BuildDataset(g)
	iterations := 0
	for {
		cfg := mapreduce.JobConfig{
			Name: fmt.Sprintf("conn-%d", iterations),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				rec := v.(*algo.VertexRec)
				out.Emit(k, rec)
				msg := algo.LabelMsg{Label: rec.Label}
				for _, u := range rec.Both() {
					out.Emit(int64(u), msg)
				}
			}),
			Combiner: minLabelCombiner{},
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				rec := findRec(values)
				if rec == nil {
					return
				}
				smallest := rec.Label
				for _, v := range values {
					if m, ok := v.(algo.LabelMsg); ok && m.Label < smallest {
						smallest = m.Label
					}
				}
				if smallest < rec.Label {
					rec = rec.Clone()
					rec.Label = smallest
					out.Incr("changed", 1)
				}
				out.Emit(k, rec)
			}),
		}
		output, stats, err := e.Run(cfg, input, input.Bytes())
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
	labels := collectLabels(input, g.NumVertices())
	return algo.ConnResult{Labels: labels, Components: algo.CountLabels(labels), Iterations: iterations}, nil
}

// minLabelCombiner keeps the smallest label vote per key.
type minLabelCombiner struct{}

func (minLabelCombiner) Reduce(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
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
}

func collectLabels(d mapreduce.Dataset, n int) []graph.VertexID {
	labels := make([]graph.VertexID, n)
	for _, kv := range d {
		if rec, ok := kv.Value.(*algo.VertexRec); ok {
			labels[kv.Key] = rec.Label
		}
	}
	return labels
}

// CD runs Leung et al. community detection: one job per round, at most
// p.CDMaxIterations rounds. No combiner is possible — the reducer
// needs every neighbour's (label, score) vote.
func CD(e *mapreduce.Engine, g *graph.Graph, p algo.Params) (algo.CDResult, error) {
	input := BuildDataset(g)
	for i := range input {
		rec := input[i].Value.(*algo.VertexRec).Clone()
		rec.Score = p.CDInitialScore
		input[i] = mapreduce.KV{Key: input[i].Key, Value: rec}
	}
	iterations := 0
	for iterations < p.CDMaxIterations {
		cfg := mapreduce.JobConfig{
			Name: fmt.Sprintf("cd-%d", iterations),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				rec := v.(*algo.VertexRec)
				out.Emit(k, rec)
				msg := algo.LabelMsg{Label: rec.Label, Score: rec.Score}
				for _, u := range rec.Both() {
					out.Emit(int64(u), msg)
				}
			}),
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				rec := findRec(values)
				if rec == nil {
					return
				}
				votes := make([]algo.LabelScore, 0, 8)
				for _, v := range values {
					if m, ok := v.(algo.LabelMsg); ok {
						votes = append(votes, algo.LabelScore{Label: m.Label, Score: m.Score})
					}
				}
				l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation)
				if !ok {
					out.Emit(k, rec)
					return
				}
				if l != rec.Label {
					out.Incr("changed", 1)
				}
				rec = rec.Clone()
				rec.Label, rec.Score = l, s
				out.Emit(k, rec)
			}),
		}
		output, stats, err := e.Run(cfg, input, input.Bytes())
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
	labels := collectLabels(input, g.NumVertices())
	return algo.CDResult{Labels: labels, Communities: algo.CountLabels(labels), Iterations: iterations}, nil
}

// EVO runs Forest Fire evolution. As the paper notes, Hadoop needs two
// MapReduce jobs per iteration: one to integrate the new burn edges
// into the adjacency records, and one to recount the graph for the
// driver's convergence/statistics check.
func EVO(e *mapreduce.Engine, g *graph.Graph, p algo.Params) (algo.EVOResult, error) {
	input := BuildDataset(g)
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
		edgeData := make(mapreduce.Dataset, 0, len(newEdges)*2)
		for _, ed := range newEdges {
			edgeData = append(edgeData,
				mapreduce.KV{Key: int64(ed.Src), Value: algo.EdgeMsg(ed)},
				mapreduce.KV{Key: int64(ed.Dst), Value: algo.EdgeMsg(ed)})
		}
		integrate := mapreduce.JobConfig{
			Name: fmt.Sprintf("evo-merge-%d", it),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				out.Emit(k, v)
			}),
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				rec := findRec(values)
				if rec == nil {
					rec = &algo.VertexRec{Dist: -1, Label: graph.VertexID(k)}
				}
				changed := false
				outAdj, inAdj := rec.Out, rec.In
				for _, v := range values {
					if ed, ok := v.(algo.EdgeMsg); ok {
						changed = true
						if int64(ed.Src) == k {
							outAdj = append(append([]graph.VertexID{}, outAdj...), ed.Dst)
						} else {
							inAdj = append(append([]graph.VertexID{}, inAdj...), ed.Src)
						}
					}
				}
				if changed {
					rec = rec.Clone()
					rec.Out, rec.In = outAdj, inAdj
				}
				out.Emit(k, rec)
			}),
		}
		combined := make(mapreduce.Dataset, 0, len(input)+len(edgeData))
		combined = append(append(combined, input...), edgeData...)
		output, _, err := e.Run(integrate, combined, combined.Bytes())
		if err != nil {
			return algo.EVOResult{}, err
		}
		input = output

		// Job 2: recount vertices and edges (the extra
		// convergence-check job Hadoop pays for).
		count := mapreduce.JobConfig{
			Name: fmt.Sprintf("evo-count-%d", it),
			Mapper: mapreduce.MapperFunc(func(k int64, v mapreduce.Value, out *mapreduce.Emitter) {
				rec := v.(*algo.VertexRec)
				out.Emit(0, algo.CountMsg{Vertices: 1, Edges: int64(len(rec.Out))})
			}),
			Combiner: sumCountCombiner{},
			Reducer: mapreduce.ReducerFunc(func(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
				var total algo.CountMsg
				for _, v := range values {
					if c, ok := v.(algo.CountMsg); ok {
						total.Vertices += c.Vertices
						total.Edges += c.Edges
					}
				}
				out.Incr("V", total.Vertices)
				out.Incr("E", total.Edges)
			}),
		}
		if _, _, err := e.Run(count, input, input.Bytes()); err != nil {
			return algo.EVOResult{}, err
		}
	}
	e.Profile.Iterations = p.EVOIterations
	return ov.Result(), nil
}

// sumCountCombiner pre-aggregates CountMsg values.
type sumCountCombiner struct{}

func (sumCountCombiner) Reduce(k int64, values []mapreduce.Value, out *mapreduce.Emitter) {
	var total algo.CountMsg
	for _, v := range values {
		if c, ok := v.(algo.CountMsg); ok {
			total.Vertices += c.Vertices
			total.Edges += c.Edges
		}
	}
	out.Emit(k, total)
}
