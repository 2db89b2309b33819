// Package pactalgo implements the paper's five algorithms as PACT
// plans for the Stratosphere-model engine. Iterative algorithms run
// one Nephele job per iteration, but — unlike Hadoop — intermediate
// state flows through memory and network channels rather than DFS
// round-trips, and the plan compiler's annotations avoid needless
// repartitioning. EVO is a single map-reduce-reduce job per iteration,
// the advantage the paper calls out in Section 4.1.3. Every plan moves
// one record type, algo.Rec, by value; adjacency rides as spans into
// the run's algo.Adjacency.
package pactalgo

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/algo"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Shorthands for the one record type every plan moves.
type (
	record    = partition.Record[algo.Rec]
	dataset   = partition.Dataset[algo.Rec]
	collector = dataflow.Collector[algo.Rec]
)

// sumCounts totals a group's count records. The clustering
// coefficients are summed as int64 fixed point, as Hadoop's lccE12
// counter does, so that the total ignores the group's placement order.
func sumCounts(group []record) algo.Rec {
	var vertices, edges, lccE12 int64
	for _, r := range group {
		v, e, l := r.Value.Count()
		vertices += v
		edges += e
		lccE12 += int64(l * 1e12)
	}
	return algo.CountRec(vertices, edges, float64(lccE12)/1e12)
}

// Stats runs STATS as a single job: map ships neighbour lists, a
// first reduce computes per-vertex LCC partials, a second reduce sums
// them ("map-reduce-reduce").
func Stats(e *dataflow.Engine, g *graph.Graph) (algo.StatsResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	p := dataflow.NewPlan[algo.Rec]("stats")
	src := p.Source("graph", input, input.Bytes())
	shipped := p.Map("ship-lists", src, func(in record, out *collector) {
		rec := in.Value
		out.Collect(in.Key, rec)
		list := algo.ListRec(rec.Out)
		for _, u := range algo.NeighborhoodOf(adj.Out(rec), adj.In(rec)) {
			out.Collect(int64(u), list)
		}
	}, dataflow.None)
	partials := p.Reduce("lcc", shipped, func(key int64, in []record, out *collector) {
		// The neighbourhood is marked before any list is counted, so the
		// vertex record is found first.
		i := slices.IndexFunc(in, func(r record) bool { return r.Value.Kind == algo.KindVertex })
		if i < 0 {
			return
		}
		rec := in[i].Value
		nbrs := algo.NeighborhoodOf(adj.Out(rec), adj.In(rec))
		lc := algo.AcquireLinkCounter(g.NumVertices(), nbrs)
		var links int64
		for _, r := range in {
			if r.Value.Kind == algo.KindList {
				list := adj.Out(r.Value)
				links += lc.Links(list)
				out.Charge(2 * int64(len(nbrs)+len(list)))
			}
		}
		lc.Release()
		out.Collect(0, algo.CountRec(1, int64(rec.Out.Len), algo.LCCOf(links, len(nbrs))))
	}, dataflow.None)
	total := p.Reduce("sum", partials, func(key int64, in []record, out *collector) {
		out.Collect(0, sumCounts(in))
	}, dataflow.SameKey)
	p.Sink(total, true)

	outs, err := dataflow.Execute(e, p)
	if err != nil {
		return algo.StatsResult{}, err
	}
	e.Profile.Iterations = 1
	if len(outs[0]) == 0 {
		return algo.StatsResult{}, nil
	}
	vertices, edges, lccSum := outs[0][0].Value.Count()
	res := algo.StatsResult{Vertices: vertices, Edges: edges}
	if !g.Directed() {
		res.Edges /= 2
	}
	if vertices > 0 {
		res.AvgLCC = lccSum / float64(vertices)
	}
	return res, nil
}

// expandFunc sends an iteration's messages from one state record.
type expandFunc func(iter int, in record, out *collector)

// applyFunc folds a vertex's messages into its next state, counting a
// change in *changed (atomically: partitions apply in parallel).
type applyFunc func(key int64, rec algo.Rec, msgs []record, changed *int64) algo.Rec

// iterate runs a per-iteration expand/apply plan until apply reports
// no change or maxIter is reached (0 = unbounded). The state dataset
// is read from the DFS once; afterwards it rides in memory between
// jobs.
func iterate(e *dataflow.Engine, name string, state dataset, maxIter int, expand expandFunc, apply applyFunc) (dataset, int, error) {
	diskBytes := state.Bytes() // first job reads from the DFS
	iterations := 0
	for {
		var changed int64
		outs, err := dataflow.Execute(e, iterationPlan(name, iterations, state, diskBytes, expand, apply, &changed))
		if err != nil {
			return nil, 0, err
		}
		diskBytes = 0
		state = outs[0]
		iterations++
		if atomic.LoadInt64(&changed) == 0 || (maxIter > 0 && iterations >= maxIter) {
			break
		}
	}

	// Materialise the final state to the DFS.
	p := dataflow.NewPlan[algo.Rec](name + "-store")
	p.Sink(p.Source("state", state, 0), true)
	if _, err := dataflow.Execute(e, p); err != nil {
		return nil, 0, err
	}
	e.Profile.Iterations = iterations
	return state, iterations, nil
}

// iterationPlan is iteration iter's job: expand the state into
// messages, then CoGroup each vertex with its messages to apply them.
// The state rides an in-memory channel into the CoGroup (a source is
// split by key); only the messages shuffle.
func iterationPlan(name string, iter int, state dataset, diskBytes int64, expand expandFunc, apply applyFunc, changed *int64) *dataflow.Plan[algo.Rec] {
	p := dataflow.NewPlan[algo.Rec](fmt.Sprintf("%s-%d", name, iter))
	src := p.Source("state", state, diskBytes)
	msgs := p.Map("expand", src, func(in record, out *collector) {
		expand(iter, in, out)
	}, dataflow.None)
	next := p.CoGroup("apply", src, msgs, func(key int64, left, right []record, out *collector) {
		if len(left) == 0 { // the state holds one vertex record per key
			return
		}
		out.Collect(key, apply(key, left[0].Value, right, changed))
	}, dataflow.SameKey)
	p.Sink(next, false)
	return p
}

// BFS runs level-synchronous BFS, one job per level.
func BFS(e *dataflow.Engine, g *graph.Graph, src graph.VertexID) (algo.BFSResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	input[src].Value.Dist = 0

	state, _, err := iterate(e, "bfs", input, 0,
		func(iter int, in record, out *collector) {
			if r := in.Value; r.Dist == int64(iter) {
				for _, u := range adj.Out(r) {
					out.Collect(int64(u), algo.DistRec(int64(iter+1)))
				}
			}
		},
		func(key int64, r algo.Rec, msgs []record, changed *int64) algo.Rec {
			best := int64(-1)
			for _, m := range msgs {
				if d := m.Value; d.Kind == algo.KindDist && (best < 0 || d.Dist < best) {
					best = d.Dist
				}
			}
			if best >= 0 && r.Dist < 0 {
				r.Dist = best
				atomic.AddInt64(changed, 1)
			}
			return r
		})
	if err != nil {
		return algo.BFSResult{}, err
	}
	return algo.BFSOf(algo.Dists[int32](state, g.NumVertices())), nil
}

// SSSP runs weighted single-source shortest paths as synchronous
// Bellman-Ford, one job per relaxation round: records that improved in
// the previous round (Frontier) relax their out-arcs, the CoGroup
// keeps the minimum candidate, and the loop ends on a round with no
// improvements.
func SSSP(e *dataflow.Engine, g *graph.Graph, src graph.VertexID) (algo.SSSPResult, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, fmt.Errorf("pactalgo: SSSP requires a weighted graph")
	}
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, true)
	input[src].Value.Dist = 0
	input[src].Value.Frontier = true

	state, iterations, err := iterate(e, "sssp", input, 0,
		func(iter int, in record, out *collector) {
			if r := in.Value; r.Dist >= 0 && r.Frontier {
				ws := adj.Weights(r)
				for i, u := range adj.Out(r) {
					out.Collect(int64(u), algo.WDistRec(r.Dist+int64(ws[i])))
				}
			}
		},
		func(key int64, r algo.Rec, msgs []record, changed *int64) algo.Rec {
			best := int64(-1)
			for _, m := range msgs {
				if d := m.Value; d.Kind == algo.KindWDist && (best < 0 || d.Dist < best) {
					best = d.Dist
				}
			}
			switch {
			case best >= 0 && (r.Dist < 0 || best < r.Dist):
				r.Dist = best
				r.Frontier = true
				atomic.AddInt64(changed, 1)
			case r.Frontier:
				// Leave the frontier after relaxing.
				r.Frontier = false
			}
			return r
		})
	if err != nil {
		return algo.SSSPResult{}, err
	}
	return algo.SSSPOf(algo.Dists[int64](state, g.NumVertices()), iterations), nil
}

// collectBoth sends msg to every out- then in-neighbour of r.
func collectBoth(adj *algo.Adjacency, r, msg algo.Rec, out *collector) {
	for _, u := range adj.Out(r) {
		out.Collect(int64(u), msg)
	}
	for _, u := range adj.In(r) {
		out.Collect(int64(u), msg)
	}
}

// Conn runs min-label propagation, one job per round.
func Conn(e *dataflow.Engine, g *graph.Graph) (algo.ConnResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	state, iterations, err := iterate(e, "conn", input, 0, connExpand(adj), connApply)
	if err != nil {
		return algo.ConnResult{}, err
	}
	labels := algo.Labels(state, g.NumVertices())
	return algo.ConnResult{Labels: labels, Components: algo.CountLabels(labels), Iterations: iterations}, nil
}

// connExpand votes each vertex's label to its neighbours.
func connExpand(adj *algo.Adjacency) expandFunc {
	return func(iter int, in record, out *collector) {
		collectBoth(adj, in.Value, algo.LabelRec(in.Value.Label, 0), out)
	}
}

// connApply keeps the smallest label a vertex hears.
func connApply(key int64, r algo.Rec, msgs []record, changed *int64) algo.Rec {
	smallest := r.Label
	for _, m := range msgs {
		if lm := m.Value; lm.Kind == algo.KindLabel && lm.Label < smallest {
			smallest = lm.Label
		}
	}
	if smallest < r.Label {
		r.Label = smallest
		atomic.AddInt64(changed, 1)
	}
	return r
}

// CD runs Leung et al. community detection, one job per round, capped
// at p.CDMaxIterations.
func CD(e *dataflow.Engine, g *graph.Graph, p algo.Params) (algo.CDResult, error) {
	adj := algo.NewAdjacency(g)
	input := algo.VertexRecords(g, adj, false)
	for i := range input {
		input[i].Value.Score = p.CDInitialScore
	}
	state, iterations, err := iterate(e, "cd", input, p.CDMaxIterations,
		func(iter int, in record, out *collector) {
			collectBoth(adj, in.Value, algo.LabelRec(in.Value.Label, in.Value.Score), out)
		},
		func(key int64, r algo.Rec, msgs []record, changed *int64) algo.Rec {
			votes := make([]algo.LabelMsg, 0, len(msgs))
			for _, m := range msgs {
				if lm := m.Value; lm.Kind == algo.KindLabel {
					votes = append(votes, algo.LabelMsg{Label: lm.Label, Score: lm.Score})
				}
			}
			l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation)
			if !ok {
				return r
			}
			if l != r.Label {
				atomic.AddInt64(changed, 1)
			}
			r.Label, r.Score = l, s
			return r
		})
	if err != nil {
		return algo.CDResult{}, err
	}
	labels := algo.Labels(state, g.NumVertices())
	return algo.CDResult{Labels: labels, Communities: algo.CountLabels(labels), Iterations: iterations}, nil
}

// EVO runs Forest Fire evolution as one map-reduce-reduce job per
// iteration: a CoGroup merges the burn edges into the state, and a
// Reduce recounts the graph — all inside a single Nephele job, where
// Hadoop needs two.
func EVO(e *dataflow.Engine, g *graph.Graph, p algo.Params) (algo.EVOResult, error) {
	adj := algo.NewAdjacency(g)
	state := algo.VertexRecords(g, adj, false)
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
		edgeData := make(dataset, 0, len(newEdges)*2)
		for _, ed := range newEdges {
			edgeData = append(edgeData,
				record{Key: int64(ed.Src), Value: algo.EdgeRec(ed)},
				record{Key: int64(ed.Dst), Value: algo.EdgeRec(ed)})
		}

		plan := dataflow.NewPlan[algo.Rec](fmt.Sprintf("evo-%d", it))
		src := plan.Source("state", state, diskBytes)
		diskBytes = 0
		edges := plan.Source("edges", edgeData, 0)
		merged := plan.CoGroup("merge", src, edges, func(key int64, left, right []record, out *collector) {
			// The state holds one vertex record per key; a vertex the
			// burns created has none yet.
			rec := algo.Rec{Kind: algo.KindVertex, Dist: -1, Label: graph.VertexID(key)}
			if len(left) > 0 {
				rec = left[0].Value
			}
			var outAdd, inAdd []graph.VertexID
			for _, r := range right {
				if ed := r.Value.Edge(); int64(ed.Src) == key {
					outAdd = append(outAdd, ed.Dst)
				} else {
					inAdd = append(inAdd, ed.Src)
				}
			}
			out.Collect(key, adj.Extend(rec, outAdd, inAdd))
		}, dataflow.SameKey)
		counts := plan.Reduce("count", plan.Map("tokey0", merged, func(in record, out *collector) {
			out.Collect(0, algo.CountRec(1, int64(in.Value.Out.Len), 0))
		}, dataflow.None), func(key int64, in []record, out *collector) {
			out.Collect(0, sumCounts(in))
		}, dataflow.SameKey)
		plan.Sink(merged, false)
		plan.Sink(counts, false)

		outs, err := dataflow.Execute(e, plan)
		if err != nil {
			return algo.EVOResult{}, err
		}
		state = outs[0]
	}
	e.Profile.Iterations = p.EVOIterations
	return ov.Result(), nil
}
