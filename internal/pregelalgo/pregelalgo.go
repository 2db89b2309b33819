// Package pregelalgo implements the paper's five algorithms as
// vertex-centric BSP programs for the Giraph-model engine. These are
// the implementations whose dynamic computation (only active vertices
// per superstep) gives Giraph its paper-measured advantage on BFS, and
// whose neighbourhood-exchange message volume is what crashes Giraph
// on STATS for high-skew graphs.
package pregelalgo

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// distVal is a BFS level vertex value.
type distVal int32

func (distVal) Size() int64 { return 5 }

// labelVal is a CONN/CD vertex value.
type labelVal struct {
	Label graph.VertexID
	Score float64
	// Round is the last CD round this vertex computed (CD iteration
	// accounting only).
	Round int32
}

func (labelVal) Size() int64 { return 14 }

// neighborhood returns the STATS neighbourhood of the current vertex
// (out ∪ in for directed graphs).
func neighborhood(ctx *pregel.Context) []graph.VertexID {
	if !ctx.Directed() {
		return ctx.Out()
	}
	rec := &algo.VertexRec{Out: ctx.Out(), In: ctx.In()}
	return algo.NeighborhoodOf(rec)
}

// Stats runs STATS in two supersteps: every vertex ships its out-list
// to its whole neighbourhood, then counts closing links. The sums
// travel through aggregators.
func Stats(g *graph.Graph, hw cluster.Hardware, sendLimit int64, profile *cluster.ExecutionProfile) (algo.StatsResult, *pregel.Stats, error) {
	cfg := pregel.Config{
		MaxSupersteps:    2,
		SendLimitPerNode: sendLimit,
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			switch ctx.Superstep() {
			case 0:
				ctx.Aggregate("V", 1)
				ctx.Aggregate("E", float64(ctx.OutDegree()))
				var list pregel.Message = algo.ListMsg(ctx.Out())
				for _, u := range neighborhood(ctx) {
					ctx.Send(u, list)
				}
			case 1:
				nbrs := neighborhood(ctx)
				lc := algo.AcquireLinkCounter(ctx.NumVertices(), nbrs)
				var links int64
				for _, m := range msgs {
					list := m.(algo.ListMsg)
					links += lc.Links(list)
					ctx.Charge(2 * int64(len(nbrs)+len(list)))
				}
				lc.Release()
				// Aggregators are per-superstep; re-aggregate the counts
				// so they survive to the final state.
				ctx.Aggregate("V", 1)
				ctx.Aggregate("E", float64(ctx.OutDegree()))
				ctx.Aggregate("lccSum", algo.LCCOf(links, len(nbrs)))
				ctx.VoteToHalt()
			}
		}),
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
		out.AvgLCC = res.Aggregators["lccSum"] / float64(v)
	}
	return out, &res.Stats, nil
}

// minDistCombiner collapses BFS distance candidates to the minimum.
type minDistCombiner struct{}

func (minDistCombiner) Combine(a, b pregel.Message) pregel.Message {
	if a.(algo.DistMsg) < b.(algo.DistMsg) {
		return a
	}
	return b
}

// BFS runs level-synchronous BFS from src with a min-combiner.
func BFS(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, sendLimit int64, profile *cluster.ExecutionProfile) (algo.BFSResult, *pregel.Stats, error) {
	cfg := pregel.Config{
		Combiner:         minDistCombiner{},
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) pregel.Value {
			if v == src {
				return distVal(0)
			}
			return distVal(-1)
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			cur := int32(ctx.Value().(distVal))
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(algo.DistMsg(1))
				ctx.VoteToHalt()
				return
			}
			best := int32(-1)
			for _, m := range msgs {
				if d := int32(m.(algo.DistMsg)); best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && cur < 0 {
				ctx.SetValue(distVal(best))
				ctx.SendToNeighbors(algo.DistMsg(best + 1))
			}
			ctx.VoteToHalt()
		}),
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.BFSResult{}, nil, err
	}
	return collectBFS(res.Values, g.NumVertices()), &res.Stats, nil
}

// collectBFS converts final distVal states into a BFSResult.
func collectBFS(values []pregel.Value, n int) algo.BFSResult {
	out := algo.BFSResult{Levels: make([]int32, n)}
	maxLevel := int32(0)
	for v, val := range values {
		d := int32(val.(distVal))
		out.Levels[v] = d
		if d >= 0 {
			out.Visited++
			if d > maxLevel {
				maxLevel = d
			}
		}
	}
	out.Iterations = int(maxLevel)
	return out
}

// wdistVal is a weighted SSSP distance vertex value (-1 unreached).
type wdistVal int64

func (wdistVal) Size() int64 { return 9 }

// minWDistCombiner collapses weighted distance candidates to the
// minimum.
type minWDistCombiner struct{}

func (minWDistCombiner) Combine(a, b pregel.Message) pregel.Message {
	if a.(algo.WDistMsg) < b.(algo.WDistMsg) {
		return a
	}
	return b
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
	relax := func(ctx *pregel.Context, base int64) {
		ws := g.OutWeights(ctx.ID())
		for i, u := range ctx.Out() {
			ctx.Send(u, algo.WDistMsg(base+int64(ws[i])))
		}
	}
	cfg := pregel.Config{
		Combiner:         minWDistCombiner{},
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) pregel.Value {
			if v == src {
				return wdistVal(0)
			}
			return wdistVal(-1)
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			cur := int64(ctx.Value().(wdistVal))
			if ctx.Superstep() == 0 {
				relax(ctx, 0)
				ctx.VoteToHalt()
				return
			}
			best := int64(-1)
			for _, m := range msgs {
				if d := int64(m.(algo.WDistMsg)); best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && (cur < 0 || best < cur) {
				ctx.SetValue(wdistVal(best))
				relax(ctx, best)
			}
			ctx.VoteToHalt()
		}),
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.SSSPResult{}, nil, err
	}
	out := algo.SSSPResult{Dist: make([]int64, g.NumVertices())}
	for v, val := range res.Values {
		d := int64(val.(wdistVal))
		out.Dist[v] = d
		if d >= 0 {
			out.Visited++
		}
	}
	out.Iterations = res.Stats.Supersteps
	return out, &res.Stats, nil
}

// minLabelCombiner collapses CONN label votes to the minimum.
type minLabelCombiner struct{}

func (minLabelCombiner) Combine(a, b pregel.Message) pregel.Message {
	if a.(algo.LabelMsg).Label < b.(algo.LabelMsg).Label {
		return a
	}
	return b
}

// sendBoth sends a message across every edge in both directions (weak
// connectivity on directed graphs).
func sendBoth(ctx *pregel.Context, m pregel.Message) {
	ctx.SendToNeighbors(m)
	if ctx.Directed() {
		for _, u := range ctx.In() {
			ctx.Send(u, m)
		}
	}
}

// Conn runs min-label propagation with a min-combiner.
func Conn(g *graph.Graph, hw cluster.Hardware, sendLimit int64, profile *cluster.ExecutionProfile) (algo.ConnResult, *pregel.Stats, error) {
	cfg := pregel.Config{
		Combiner:         minLabelCombiner{},
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) pregel.Value {
			return labelVal{Label: v}
		},
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			cur := ctx.Value().(labelVal).Label
			if ctx.Superstep() == 0 {
				sendBoth(ctx, algo.LabelMsg{Label: cur})
				ctx.VoteToHalt()
				return
			}
			smallest := cur
			for _, m := range msgs {
				if l := m.(algo.LabelMsg).Label; l < smallest {
					smallest = l
				}
			}
			if smallest < cur {
				ctx.SetValue(labelVal{Label: smallest})
				sendBoth(ctx, algo.LabelMsg{Label: smallest})
			}
			ctx.VoteToHalt()
		}),
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.ConnResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for v, val := range res.Values {
		labels[v] = val.(labelVal).Label
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
	cfg := pregel.Config{
		MaxSupersteps:    p.CDMaxIterations + 1,
		SendLimitPerNode: sendLimit,
		InitialValue: func(v graph.VertexID) pregel.Value {
			return labelVal{Label: v, Score: p.CDInitialScore}
		},
		Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
			val := ctx.Value().(labelVal)
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
			votes := make([]algo.LabelScore, 0, len(msgs))
			for _, m := range msgs {
				lm := m.(algo.LabelMsg)
				votes = append(votes, algo.LabelScore{Label: lm.Label, Score: lm.Score})
			}
			if l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation); ok {
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
		}),
	}
	res, err := pregel.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.CDResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	iters := 0
	for v, val := range res.Values {
		lv := val.(labelVal)
		labels[v] = lv.Label
		if int(lv.Round) > iters {
			iters = int(lv.Round)
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
func EVO(g *graph.Graph, hw cluster.Hardware, p algo.Params, sendLimit int64, profile *cluster.ExecutionProfile) (algo.EVOResult, *pregel.Stats, error) {
	ov := algo.NewOverlay(g)
	total := &pregel.Stats{}
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
		cfg := pregel.Config{
			MaxSupersteps:    2,
			SendLimitPerNode: sendLimit,
			SkipSetup:        true,
			InitiallyActive: func(v graph.VertexID) bool {
				_, ok := ambassadorOf[v]
				return ok
			},
			Program: pregel.ProgramFunc(func(ctx *pregel.Context, msgs []pregel.Message) {
				if ctx.Superstep() == 0 {
					if amb, ok := ambassadorOf[ctx.ID()]; ok && amb != ctx.ID() {
						ctx.Send(amb, algo.EdgeMsg{Src: ctx.ID(), Dst: amb})
					}
				}
				ctx.VoteToHalt()
			}),
		}
		res, err := pregel.Run(g, hw, cfg, profile)
		if err != nil {
			return algo.EVOResult{}, nil, err
		}
		total.Supersteps += res.Stats.Supersteps
		total.TotalMessages += res.Stats.TotalMessages
		total.TotalMsgBytes += res.Stats.TotalMsgBytes
		total.NetBytes += res.Stats.NetBytes
		if res.Stats.PeakInboxBytes > total.PeakInboxBytes {
			total.PeakInboxBytes = res.Stats.PeakInboxBytes
		}
	}
	if profile != nil {
		profile.Iterations = p.EVOIterations
	}
	return ov.Result(), total, nil
}
