// Package pactalgo implements the paper's five algorithms as PACT
// plans for the Stratosphere-model engine. Iterative algorithms run
// one Nephele job per iteration, but — unlike Hadoop — intermediate
// state flows through memory and network channels rather than DFS
// round-trips, and the plan compiler's annotations avoid needless
// repartitioning. EVO is a single map-reduce-reduce job per iteration,
// the advantage the paper calls out in Section 4.1.3.
package pactalgo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/algo"
	"repro/internal/dataflow"
	"repro/internal/graph"
)

// BuildDataset converts a graph into the keyed vertex-record dataset.
func BuildDataset(g *graph.Graph) dataflow.Dataset {
	n := g.NumVertices()
	d := make(dataflow.Dataset, n)
	for v := 0; v < n; v++ {
		rec := &algo.VertexRec{
			Out:   g.Out(graph.VertexID(v)),
			Dist:  -1,
			Label: graph.VertexID(v),
		}
		if g.Directed() {
			rec.In = g.In(graph.VertexID(v))
		}
		d[v] = dataflow.Record{Key: int64(v), Value: rec}
	}
	return d
}

// Stats runs STATS as a single job: map ships neighbour lists, a
// first reduce computes per-vertex LCC partials, a second reduce sums
// them ("map-reduce-reduce").
func Stats(e *dataflow.Engine, g *graph.Graph) (algo.StatsResult, error) {
	input := BuildDataset(g)
	p := dataflow.NewPlan("stats")
	src := p.Source("graph", input, input.Bytes())
	shipped := p.Map("ship-lists", src, func(in dataflow.Record, out *dataflow.Collector) {
		rec := in.Value.(*algo.VertexRec)
		out.Collect(in.Key, rec)
		var list dataflow.Value = algo.ListMsg(rec.Out)
		for _, u := range algo.NeighborhoodOf(rec) {
			out.Collect(int64(u), list)
		}
	}, dataflow.None)
	partials := p.Reduce("lcc", shipped, func(key int64, in []dataflow.Record, out *dataflow.Collector) {
		var rec *algo.VertexRec
		for _, r := range in {
			if x, ok := r.Value.(*algo.VertexRec); ok {
				rec = x
			}
		}
		if rec == nil {
			return
		}
		nbrs := algo.NeighborhoodOf(rec)
		lc := algo.AcquireLinkCounter(g.NumVertices(), nbrs)
		var links int64
		for _, r := range in {
			if list, ok := r.Value.(algo.ListMsg); ok {
				links += lc.Links(list)
				out.Charge(2 * int64(len(nbrs)+len(list)))
			}
		}
		lc.Release()
		out.Collect(0, algo.CountMsg{
			Vertices: 1,
			Edges:    int64(len(rec.Out)),
			LCCSum:   algo.LCCOf(links, len(nbrs)),
		})
	}, dataflow.None)
	total := p.Reduce("sum", partials, func(key int64, in []dataflow.Record, out *dataflow.Collector) {
		var t algo.CountMsg
		for _, r := range in {
			c := r.Value.(algo.CountMsg)
			t.Vertices += c.Vertices
			t.Edges += c.Edges
			t.LCCSum += c.LCCSum
		}
		out.Collect(0, t)
	}, dataflow.SameKey)
	p.Sink(total, true)

	outs, err := e.Execute(p)
	if err != nil {
		return algo.StatsResult{}, err
	}
	e.Profile.Iterations = 1
	if len(outs[0]) == 0 {
		return algo.StatsResult{}, nil
	}
	t := outs[0][0].Value.(algo.CountMsg)
	res := algo.StatsResult{Vertices: t.Vertices, Edges: t.Edges}
	if !g.Directed() {
		res.Edges /= 2
	}
	if t.Vertices > 0 {
		res.AvgLCC = t.LCCSum / float64(t.Vertices)
	}
	return res, nil
}

// iterate runs a per-iteration expand/apply plan until apply reports
// no change or maxIter is reached (0 = unbounded). The state dataset
// is read from the DFS once; afterwards it rides in memory between
// jobs.
func iterate(
	e *dataflow.Engine,
	name string,
	state dataflow.Dataset,
	maxIter int,
	expand func(iter int, in dataflow.Record, out *dataflow.Collector),
	apply func(key int64, rec *algo.VertexRec, msgs []dataflow.Record, changed *int64) *algo.VertexRec,
) (dataflow.Dataset, int, error) {
	diskBytes := state.Bytes() // first job reads from the DFS
	iterations := 0
	for {
		var changed int64
		p := dataflow.NewPlan(fmt.Sprintf("%s-%d", name, iterations))
		src := p.Source("state", state, diskBytes)
		diskBytes = 0
		iter := iterations
		msgs := p.Map("expand", src, func(in dataflow.Record, out *dataflow.Collector) {
			expand(iter, in, out)
		}, dataflow.None)
		next := p.CoGroup("apply", src, msgs, func(key int64, left, right []dataflow.Record, out *dataflow.Collector) {
			var rec *algo.VertexRec
			for _, r := range left {
				if x, ok := r.Value.(*algo.VertexRec); ok {
					rec = x
				}
			}
			if rec == nil {
				return
			}
			out.Collect(key, apply(key, rec, right, &changed))
		}, dataflow.SameKey)
		p.Sink(next, false)

		outs, err := e.Execute(p)
		if err != nil {
			return nil, 0, err
		}
		state = outs[0]
		iterations++
		if atomic.LoadInt64(&changed) == 0 || (maxIter > 0 && iterations >= maxIter) {
			break
		}
	}

	// Materialise the final state to the DFS.
	p := dataflow.NewPlan(name + "-store")
	p.Sink(p.Source("state", state, 0), true)
	if _, err := e.Execute(p); err != nil {
		return nil, 0, err
	}
	e.Profile.Iterations = iterations
	return state, iterations, nil
}

// BFS runs level-synchronous BFS, one job per level.
func BFS(e *dataflow.Engine, g *graph.Graph, src graph.VertexID) (algo.BFSResult, error) {
	input := BuildDataset(g)
	rec := input[src].Value.(*algo.VertexRec).Clone()
	rec.Dist = 0
	input[src] = dataflow.Record{Key: int64(src), Value: rec}

	state, _, err := iterate(e, "bfs", input, 0,
		func(iter int, in dataflow.Record, out *dataflow.Collector) {
			r := in.Value.(*algo.VertexRec)
			if r.Dist == int32(iter) {
				for _, u := range r.Out {
					out.Collect(int64(u), algo.DistMsg(iter+1))
				}
			}
		},
		func(key int64, r *algo.VertexRec, msgs []dataflow.Record, changed *int64) *algo.VertexRec {
			best := int32(-1)
			for _, m := range msgs {
				if d, ok := m.Value.(algo.DistMsg); ok && (best < 0 || int32(d) < best) {
					best = int32(d)
				}
			}
			if best >= 0 && r.Dist < 0 {
				r = r.Clone()
				r.Dist = best
				atomic.AddInt64(changed, 1)
			}
			return r
		})
	if err != nil {
		return algo.BFSResult{}, err
	}
	res := algo.BFSResult{Levels: make([]int32, g.NumVertices())}
	maxLevel := int32(0)
	for _, r := range state {
		d := r.Value.(*algo.VertexRec).Dist
		res.Levels[r.Key] = d
		if d >= 0 {
			res.Visited++
			if d > maxLevel {
				maxLevel = d
			}
		}
	}
	res.Iterations = int(maxLevel)
	return res, nil
}

// BuildWeightedDataset converts a weighted graph into vertex records
// that carry per-arc weights alongside the out-lists.
func BuildWeightedDataset(g *graph.Graph) dataflow.Dataset {
	n := g.NumVertices()
	d := make(dataflow.Dataset, n)
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
		d[v] = dataflow.Record{Key: int64(v), Value: rec}
	}
	return d
}

// SSSP runs weighted single-source shortest paths as synchronous
// Bellman-Ford, one job per relaxation round: records that improved in
// the previous round (WRound == 1) relax their out-arcs, the CoGroup
// keeps the minimum candidate, and the loop ends on a round with no
// improvements.
func SSSP(e *dataflow.Engine, g *graph.Graph, src graph.VertexID) (algo.SSSPResult, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, fmt.Errorf("pactalgo: SSSP requires a weighted graph")
	}
	input := BuildWeightedDataset(g)
	rec := input[src].Value.(*algo.VertexRec).Clone()
	rec.DistW = 0
	rec.WRound = 1
	input[src] = dataflow.Record{Key: int64(src), Value: rec}

	state, iterations, err := iterate(e, "sssp", input, 0,
		func(iter int, in dataflow.Record, out *dataflow.Collector) {
			r := in.Value.(*algo.VertexRec)
			if r.DistW >= 0 && r.WRound == 1 {
				for i, u := range r.Out {
					out.Collect(int64(u), algo.WDistMsg(r.DistW+int64(r.WOut[i])))
				}
			}
		},
		func(key int64, r *algo.VertexRec, msgs []dataflow.Record, changed *int64) *algo.VertexRec {
			best := int64(-1)
			for _, m := range msgs {
				if d, ok := m.Value.(algo.WDistMsg); ok && (best < 0 || int64(d) < best) {
					best = int64(d)
				}
			}
			switch {
			case best >= 0 && (r.DistW < 0 || best < r.DistW):
				r = r.Clone()
				r.DistW = best
				r.WRound = 1
				atomic.AddInt64(changed, 1)
			case r.WRound == 1:
				// Leave the frontier after relaxing.
				r = r.Clone()
				r.WRound = 0
			}
			return r
		})
	if err != nil {
		return algo.SSSPResult{}, err
	}
	res := algo.SSSPResult{Dist: make([]int64, g.NumVertices()), Iterations: iterations}
	for i := range res.Dist {
		res.Dist[i] = -1
	}
	for _, r := range state {
		d := r.Value.(*algo.VertexRec).DistW
		res.Dist[r.Key] = d
		if d >= 0 {
			res.Visited++
		}
	}
	return res, nil
}

// Conn runs min-label propagation, one job per round.
func Conn(e *dataflow.Engine, g *graph.Graph) (algo.ConnResult, error) {
	input := BuildDataset(g)
	state, iterations, err := iterate(e, "conn", input, 0,
		func(iter int, in dataflow.Record, out *dataflow.Collector) {
			r := in.Value.(*algo.VertexRec)
			msg := algo.LabelMsg{Label: r.Label}
			for _, u := range r.Both() {
				out.Collect(int64(u), msg)
			}
		},
		func(key int64, r *algo.VertexRec, msgs []dataflow.Record, changed *int64) *algo.VertexRec {
			smallest := r.Label
			for _, m := range msgs {
				if lm, ok := m.Value.(algo.LabelMsg); ok && lm.Label < smallest {
					smallest = lm.Label
				}
			}
			if smallest < r.Label {
				r = r.Clone()
				r.Label = smallest
				atomic.AddInt64(changed, 1)
			}
			return r
		})
	if err != nil {
		return algo.ConnResult{}, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for _, r := range state {
		labels[r.Key] = r.Value.(*algo.VertexRec).Label
	}
	return algo.ConnResult{Labels: labels, Components: algo.CountLabels(labels), Iterations: iterations}, nil
}

// CD runs Leung et al. community detection, one job per round, capped
// at p.CDMaxIterations.
func CD(e *dataflow.Engine, g *graph.Graph, p algo.Params) (algo.CDResult, error) {
	input := BuildDataset(g)
	for i := range input {
		rec := input[i].Value.(*algo.VertexRec).Clone()
		rec.Score = p.CDInitialScore
		input[i] = dataflow.Record{Key: input[i].Key, Value: rec}
	}
	state, iterations, err := iterate(e, "cd", input, p.CDMaxIterations,
		func(iter int, in dataflow.Record, out *dataflow.Collector) {
			r := in.Value.(*algo.VertexRec)
			msg := algo.LabelMsg{Label: r.Label, Score: r.Score}
			for _, u := range r.Both() {
				out.Collect(int64(u), msg)
			}
		},
		func(key int64, r *algo.VertexRec, msgs []dataflow.Record, changed *int64) *algo.VertexRec {
			votes := make([]algo.LabelScore, 0, len(msgs))
			for _, m := range msgs {
				if lm, ok := m.Value.(algo.LabelMsg); ok {
					votes = append(votes, algo.LabelScore{Label: lm.Label, Score: lm.Score})
				}
			}
			l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation)
			if !ok {
				return r
			}
			if l != r.Label {
				atomic.AddInt64(changed, 1)
			}
			r = r.Clone()
			r.Label, r.Score = l, s
			return r
		})
	if err != nil {
		return algo.CDResult{}, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for _, r := range state {
		labels[r.Key] = r.Value.(*algo.VertexRec).Label
	}
	return algo.CDResult{Labels: labels, Communities: algo.CountLabels(labels), Iterations: iterations}, nil
}

// EVO runs Forest Fire evolution as one map-reduce-reduce job per
// iteration: a CoGroup merges the burn edges into the state, and a
// Reduce recounts the graph — all inside a single Nephele job, where
// Hadoop needs two.
func EVO(e *dataflow.Engine, g *graph.Graph, p algo.Params) (algo.EVOResult, error) {
	state := BuildDataset(g)
	ov := algo.NewOverlay(g)
	diskBytes := state.Bytes()

	for it, batch := range algo.BatchSizes(g.NumVertices(), p) {
		var newEdges []graph.Edge
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := algo.ForestFireBurn(newID, int(newID), p, ov.Neighbors)
			ov.AddEdges(edges)
			newEdges = append(newEdges, edges...)
		}
		edgeData := make(dataflow.Dataset, 0, len(newEdges)*2)
		for _, ed := range newEdges {
			edgeData = append(edgeData,
				dataflow.Record{Key: int64(ed.Src), Value: algo.EdgeMsg(ed)},
				dataflow.Record{Key: int64(ed.Dst), Value: algo.EdgeMsg(ed)})
		}

		plan := dataflow.NewPlan(fmt.Sprintf("evo-%d", it))
		src := plan.Source("state", state, diskBytes)
		diskBytes = 0
		edges := plan.Source("edges", edgeData, 0)
		merged := plan.CoGroup("merge", src, edges, func(key int64, left, right []dataflow.Record, out *dataflow.Collector) {
			var rec *algo.VertexRec
			for _, r := range left {
				if x, ok := r.Value.(*algo.VertexRec); ok {
					rec = x
				}
			}
			if rec == nil {
				rec = &algo.VertexRec{Dist: -1, Label: graph.VertexID(key)}
			}
			if len(right) > 0 {
				rec = rec.Clone()
				outAdj := append([]graph.VertexID{}, rec.Out...)
				inAdj := append([]graph.VertexID{}, rec.In...)
				for _, r := range right {
					ed := r.Value.(algo.EdgeMsg)
					if int64(ed.Src) == key {
						outAdj = append(outAdj, ed.Dst)
					} else {
						inAdj = append(inAdj, ed.Src)
					}
				}
				rec.Out, rec.In = outAdj, inAdj
			}
			out.Collect(key, rec)
		}, dataflow.SameKey)
		counts := plan.Reduce("count", plan.Map("tokey0", merged, func(in dataflow.Record, out *dataflow.Collector) {
			rec := in.Value.(*algo.VertexRec)
			out.Collect(0, algo.CountMsg{Vertices: 1, Edges: int64(len(rec.Out))})
		}, dataflow.None), func(key int64, in []dataflow.Record, out *dataflow.Collector) {
			var t algo.CountMsg
			for _, r := range in {
				c := r.Value.(algo.CountMsg)
				t.Vertices += c.Vertices
				t.Edges += c.Edges
			}
			out.Collect(0, t)
		}, dataflow.SameKey)
		plan.Sink(merged, false)
		plan.Sink(counts, false)

		outs, err := e.Execute(plan)
		if err != nil {
			return algo.EVOResult{}, err
		}
		state = outs[0]
	}
	e.Profile.Iterations = p.EVOIterations
	return ov.Result(), nil
}
