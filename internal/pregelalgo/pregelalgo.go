// Package pregelalgo implements the paper's five algorithms as
// vertex-centric BSP programs for the Giraph-model engine. These are
// the implementations whose dynamic computation (only active vertices
// per superstep) gives Giraph its paper-measured advantage on BFS, and
// whose neighbourhood-exchange message volume is what crashes Giraph
// on STATS for high-skew graphs. Messages are algo's *Msg types; BFS
// and SSSP keep their vertex values in the same algo.DistMsg and
// algo.WDistMsg, so only CONN/CD labels and the empty value of STATS
// and EVO are declared here. BFS and SSSP results are read off the
// final values by algo.BFSOf and algo.SSSPOf.
package pregelalgo

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// noVal is the vertex value of STATS and EVO, whose results live
// outside the engine. It takes no bytes, so a checkpoint holds only
// their in-flight messages.
type noVal struct{}

// Size is zero: STATS and EVO never set a value.
func (noVal) Size() int64 { return 0 }

// labelVal is a CONN/CD vertex value.
type labelVal struct {
	Label graph.VertexID
	Score float64
	// Round is the last CD round this vertex computed (CD iteration
	// accounting only).
	Round int32
}

// Size is a CONN or CD label's modelled bytes.
func (labelVal) Size() int64 { return 14 }

// neighborhood returns the STATS neighbourhood of the current vertex
// (out ∪ in for directed graphs).
func neighborhood(ctx *pregel.Context[noVal, algo.ListMsg]) []graph.VertexID {
	if !ctx.Directed() {
		return ctx.Out()
	}
	return algo.NeighborhoodOf(ctx.Out(), ctx.In())
}

// Stats runs STATS in two supersteps: every vertex ships its out-list
// to its whole neighbourhood, then counts closing links. The counts
// travel through aggregators; each vertex writes its clustering
// coefficient to its own slot, summed in vertex order so that AvgLCC
// ignores placement (a replayed superstep rewrites the same values).
func Stats(g *graph.Graph, hw cluster.Hardware, sendLimit int64, profile *cluster.ExecutionProfile) (algo.StatsResult, *pregel.Stats, error) {
	lcc := make([]float64, g.NumVertices())
	cfg := pregel.Config[noVal, algo.ListMsg]{
		MaxSupersteps:    2,
		SendLimitPerNode: sendLimit,
		Program: func(ctx *pregel.Context[noVal, algo.ListMsg], msgs []algo.ListMsg) {
			switch ctx.Superstep() {
			case 0:
				ctx.Aggregate("V", 1)
				ctx.Aggregate("E", float64(ctx.OutDegree()))
				list := algo.ListMsg(ctx.Out())
				for _, u := range neighborhood(ctx) {
					ctx.Send(u, list)
				}
			case 1:
				nbrs := neighborhood(ctx)
				lc := algo.AcquireLinkCounter(ctx.NumVertices(), nbrs)
				var links int64
				for _, list := range msgs {
					links += lc.Links(list)
					ctx.Charge(2 * int64(len(nbrs)+len(list)))
				}
				lc.Release()
				// Aggregators are per-superstep; re-aggregate the counts
				// so they survive to the final state.
				ctx.Aggregate("V", 1)
				ctx.Aggregate("E", float64(ctx.OutDegree()))
				lcc[ctx.ID()] = algo.LCCOf(links, len(nbrs))
				ctx.VoteToHalt()
			}
		},
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.StatsResult{}, nil, err
	}
	v := int64(res.Aggregators["V"] + 0.5)
	edges := int64(res.Aggregators["E"] + 0.5)
	if !g.Directed() {
		edges /= 2
	}
	out := algo.StatsResult{Vertices: v, Edges: edges}
	if v > 0 {
		var lccSum float64
		for _, x := range lcc {
			lccSum += x
		}
		out.AvgLCC = lccSum / float64(v)
	}
	return out, &res.Stats, nil
}

// minOf folds distance candidates to the smallest.
func minOf[D algo.DistMsg | algo.WDistMsg](dst *D, m D) {
	if m < *dst {
		*dst = m
	}
}

// BFS runs level-synchronous BFS from src with a min-combiner.
func BFS(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, sendLimit int64, profile *cluster.ExecutionProfile) (algo.BFSResult, *pregel.Stats, error) {
	cfg := pregel.Config[algo.DistMsg, algo.DistMsg]{
		Combine:          minOf[algo.DistMsg],
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) algo.DistMsg {
			if v == src {
				return 0
			}
			return -1
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: func(ctx *pregel.Context[algo.DistMsg, algo.DistMsg], msgs []algo.DistMsg) {
			cur := int32(ctx.Value())
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(algo.DistMsg(1))
				ctx.VoteToHalt()
				return
			}
			best := int32(-1)
			for _, m := range msgs {
				if d := int32(m); best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && cur < 0 {
				ctx.SetValue(algo.DistMsg(best))
				ctx.SendToNeighbors(algo.DistMsg(best + 1))
			}
			ctx.VoteToHalt()
		},
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.BFSResult{}, nil, err
	}
	levels := make([]int32, len(res.Values))
	for v, d := range res.Values {
		levels[v] = int32(d)
	}
	return algo.BFSOf(levels), &res.Stats, nil
}

// SSSP runs weighted single-source shortest paths as synchronous
// Bellman-Ford with a min-combiner: every vertex whose distance
// improves relaxes its out-arcs in the next superstep. Weights are
// integers, so distances are exact and byte-identical to the
// sequential reference whatever the relaxation order.
func SSSP(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, sendLimit int64, profile *cluster.ExecutionProfile) (algo.SSSPResult, *pregel.Stats, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, nil, fmt.Errorf("pregelalgo: SSSP requires a weighted graph")
	}
	relax := func(ctx *pregel.Context[algo.WDistMsg, algo.WDistMsg], base int64) {
		ws := g.OutWeights(ctx.ID())
		for i, u := range ctx.Out() {
			ctx.Send(u, algo.WDistMsg(base+int64(ws[i])))
		}
	}
	cfg := pregel.Config[algo.WDistMsg, algo.WDistMsg]{
		Combine:          minOf[algo.WDistMsg],
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) algo.WDistMsg {
			if v == src {
				return 0
			}
			return -1
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: func(ctx *pregel.Context[algo.WDistMsg, algo.WDistMsg], msgs []algo.WDistMsg) {
			cur := int64(ctx.Value())
			if ctx.Superstep() == 0 {
				relax(ctx, 0)
				ctx.VoteToHalt()
				return
			}
			best := int64(-1)
			for _, m := range msgs {
				if d := int64(m); best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && (cur < 0 || best < cur) {
				ctx.SetValue(algo.WDistMsg(best))
				relax(ctx, best)
			}
			ctx.VoteToHalt()
		},
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.SSSPResult{}, nil, err
	}
	dist := make([]int64, len(res.Values))
	for v, d := range res.Values {
		dist[v] = int64(d)
	}
	return algo.SSSPOf(dist, res.Stats.Supersteps), &res.Stats, nil
}

// minLabel folds CONN label votes to the smallest label.
func minLabel(dst *algo.LabelMsg, m algo.LabelMsg) {
	if m.Label <= dst.Label {
		*dst = m
	}
}

// sendBoth sends a message across every edge in both directions (weak
// connectivity on directed graphs).
func sendBoth(ctx *pregel.Context[labelVal, algo.LabelMsg], m algo.LabelMsg) {
	ctx.SendToNeighbors(m)
	if ctx.Directed() {
		for _, u := range ctx.In() {
			ctx.Send(u, m)
		}
	}
}

// Conn runs min-label propagation with a min-combiner.
func Conn(g *graph.Graph, hw cluster.Hardware, sendLimit int64, profile *cluster.ExecutionProfile) (algo.ConnResult, *pregel.Stats, error) {
	cfg := pregel.Config[labelVal, algo.LabelMsg]{
		Combine:          minLabel,
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) labelVal {
			return labelVal{Label: v}
		},
		Program: func(ctx *pregel.Context[labelVal, algo.LabelMsg], msgs []algo.LabelMsg) {
			cur := ctx.Value().Label
			if ctx.Superstep() == 0 {
				sendBoth(ctx, algo.LabelMsg{Label: cur})
				ctx.VoteToHalt()
				return
			}
			smallest := cur
			for _, m := range msgs {
				if l := m.Label; l < smallest {
					smallest = l
				}
			}
			if smallest < cur {
				ctx.SetValue(labelVal{Label: smallest})
				sendBoth(ctx, algo.LabelMsg{Label: smallest})
			}
			ctx.VoteToHalt()
		},
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.ConnResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for v, val := range res.Values {
		labels[v] = val.Label
	}
	return algo.ConnResult{
		Labels:     labels,
		Components: algo.CountLabels(labels),
		Iterations: res.Stats.Supersteps - 1, // superstep 0 seeds the labels
	}, &res.Stats, nil
}

// CD runs Leung et al. community detection for up to
// p.CDMaxIterations rounds. Every vertex re-evaluates each round (the
// update rule needs all votes), so there is no combiner.
func CD(g *graph.Graph, hw cluster.Hardware, p algo.Params, sendLimit int64, profile *cluster.ExecutionProfile) (algo.CDResult, *pregel.Stats, error) {
	cfg := pregel.Config[labelVal, algo.LabelMsg]{
		MaxSupersteps:    p.CDMaxIterations + 1,
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) labelVal {
			return labelVal{Label: v, Score: p.CDInitialScore}
		},
		Program: func(ctx *pregel.Context[labelVal, algo.LabelMsg], msgs []algo.LabelMsg) {
			val := ctx.Value()
			if ctx.Superstep() == 0 {
				sendBoth(ctx, algo.LabelMsg{Label: val.Label, Score: val.Score})
				return
			}
			// Quiescence first: if the previous round changed no label,
			// the fixed point is reached — halt without recomputing, so
			// the executed round count matches the synchronous
			// reference.
			if ctx.Superstep() >= 2 && ctx.Aggregated("changed") == 0 {
				ctx.VoteToHalt()
				return
			}
			// The votes are sorted where they were delivered, which
			// Config.Program allows.
			if l, s, ok := algo.ChooseLabel(msgs, p.CDHopAttenuation); ok {
				if l != val.Label {
					ctx.Aggregate("changed", 1)
				}
				val = labelVal{Label: l, Score: s, Round: int32(ctx.Superstep())}
				ctx.SetValue(val)
			} else {
				val.Round = int32(ctx.Superstep())
				ctx.SetValue(val)
			}
			if ctx.Superstep() >= p.CDMaxIterations {
				ctx.VoteToHalt()
				return
			}
			sendBoth(ctx, algo.LabelMsg{Label: val.Label, Score: val.Score})
		},
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.CDResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	iters := 0
	for v, val := range res.Values {
		labels[v] = val.Label
		if int(val.Round) > iters {
			iters = int(val.Round)
		}
	}
	return algo.CDResult{
		Labels:      labels,
		Communities: algo.CountLabels(labels),
		Iterations:  iters,
	}, &res.Stats, nil
}

// EVO runs Forest Fire evolution. The burns are computed by the
// (deterministic) shared model; each iteration then runs a two-
// superstep exchange in which every burned vertex acknowledges its new
// edge to the burn's ambassador — the "relatively few messages" that
// let Giraph finish EVO even on Friendster.
func EVO(g *graph.Graph, hw cluster.Hardware, p algo.Params, sendLimit int64, profile *cluster.ExecutionProfile) (algo.EVOResult, error) {
	ov := algo.NewOverlay(g)
	if profile != nil {
		// One Giraph job hosts all evolution iterations.
		profile.AddPhase(cluster.Phase{
			Name: "pregel:setup", Kind: cluster.PhaseSetup,
			Jobs: 1, Tasks: hw.Nodes,
		})
	}

	for _, batch := range algo.BatchSizes(g.NumVertices(), p) {
		// Plan the batch's burns.
		type burn struct {
			ambassador graph.VertexID
			targets    []graph.VertexID
		}
		var burns []burn
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := algo.ForestFireBurn(newID, int(newID), p, ov.Neighbors)
			ov.AddEdges(edges)
			if len(edges) == 0 {
				continue
			}
			b := burn{ambassador: edges[0].Dst}
			for _, e := range edges[1:] {
				b.targets = append(b.targets, e.Dst)
			}
			burns = append(burns, b)
		}

		// Execute the integration exchange on the base graph: burned
		// vertices message their ambassador, ambassadors apply.
		ambassadorOf := make(map[graph.VertexID]graph.VertexID)
		for _, b := range burns {
			// Later iterations can burn through vertices added by
			// earlier batches; the base-graph exchange only involves
			// stored vertices.
			if int(b.ambassador) >= g.NumVertices() {
				continue
			}
			for _, t := range b.targets {
				if int(t) < g.NumVertices() {
					ambassadorOf[t] = b.ambassador
				}
			}
			ambassadorOf[b.ambassador] = b.ambassador
		}
		cfg := pregel.Config[noVal, algo.EdgeMsg]{
			MaxSupersteps:    2,
			SendLimitPerNode: sendLimit,
			SkipSetup:        true,
			InitiallyActive: func(v graph.VertexID) bool {
				_, ok := ambassadorOf[v]
				return ok
			},
			Program: func(ctx *pregel.Context[noVal, algo.EdgeMsg], msgs []algo.EdgeMsg) {
				if ctx.Superstep() == 0 {
					if amb, ok := ambassadorOf[ctx.ID()]; ok && amb != ctx.ID() {
						ctx.Send(amb, algo.EdgeMsg{Src: ctx.ID(), Dst: amb})
					}
				}
				ctx.VoteToHalt()
			},
		}
		if _, err := pregel.Run(g, hw, cfg, profile); err != nil {
			return algo.EVOResult{}, err
		}
	}
	if profile != nil {
		profile.Iterations = p.EVOIterations
	}
	return ov.Result(), nil
}
