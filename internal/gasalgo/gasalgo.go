// Package gasalgo implements the paper's five algorithms as
// Gather-Apply-Scatter programs for the GraphLab-model engine. The
// programs exploit GraphLab's dynamic computation (only signalled
// vertices run) and pay its structural costs: undirected edge doubling
// and mirror-synchronisation traffic.
package gasalgo

import (
	"fmt"
	"sort"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
)

// ---- STATS ----------------------------------------------------------

// statsVal carries the neighbourhood data STATS needs at each vertex.
type statsVal struct {
	Nbrs []graph.VertexID // sorted distinct neighbourhood
	Out  []graph.VertexID // sorted out-list
	LCC  float64
}

func (v *statsVal) Size() int64 {
	return int64(len(v.Nbrs)+len(v.Out))*5 + 8
}

// linksAccum accumulates closing-link counts (float: a neighbour
// reachable in both directions contributes its count half per edge).
type linksAccum float64

func (linksAccum) Size() int64 { return 8 }

type statsProgram struct {
	g *graph.Graph
}

func (p statsProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	sv := srcVal.(*statsVal)
	vv := vVal.(*statsVal)
	// Gather is per edge, as in PowerGraph: the neighbourhood is marked
	// and cleared for every gathered edge.
	lc := algo.AcquireLinkCounter(p.g.NumVertices(), vv.Nbrs)
	links := float64(lc.Links(sv.Out))
	lc.Release()
	if p.g.Directed() && contains(p.g.Out(v), src) && contains(p.g.In(v), src) {
		// src is gathered once per direction; halve so the pair of
		// calls contributes the neighbour exactly once.
		links /= 2
	}
	return linksAccum(links)
}

func (statsProgram) Sum(a, b gas.Accum) gas.Accum {
	return linksAccum(float64(a.(linksAccum)) + float64(b.(linksAccum)))
}

func (statsProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	vv := old.(*statsVal)
	links := 0.0
	if acc != nil {
		links = float64(acc.(linksAccum))
	}
	nv := *vv
	nv.LCC = algo.LCCOf(int64(links+0.5), len(vv.Nbrs))
	return &nv
}

func (statsProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	return false // one round
}

func contains(sorted []graph.VertexID, x graph.VertexID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// Stats runs STATS as a one-round GAS program.
func Stats(g *graph.Graph, hw cluster.Hardware, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.StatsResult, *gas.Stats, error) {
	cfg := gas.Config{
		Program:          statsProgram{g: g},
		MaxIterations:    1,
		GatherBoth:       true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) gas.Value {
			rec := &algo.VertexRec{Out: g.Out(v)}
			if g.Directed() {
				rec.In = g.In(v)
			}
			return &statsVal{Nbrs: algo.NeighborhoodOf(rec), Out: g.Out(v)}
		},
	}
	res, err := gas.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.StatsResult{}, nil, err
	}
	// The gather functions do quadratic intersection work the engine's
	// per-edge baseline does not capture; charge it explicitly.
	if profile != nil {
		var extra int64
		for v := graph.VertexID(0); v < graph.VertexID(g.NumVertices()); v++ {
			d := int64(g.Degree(v))
			extra += 2 * d * d
		}
		profile.AddPhase(cluster.Phase{
			Name: "gas:lcc-intersections", Kind: cluster.PhaseCompute,
			Ops: extra,
		})
	}
	var lccSum float64
	for _, v := range res.Values {
		lccSum += v.(*statsVal).LCC
	}
	out := algo.StatsResult{
		Vertices: int64(g.NumVertices()),
		Edges:    g.NumEdges(),
	}
	if out.Vertices > 0 {
		out.AvgLCC = lccSum / float64(out.Vertices)
	}
	return out, &res.Stats, nil
}

// ---- BFS ------------------------------------------------------------

type bfsVal struct {
	Dist    int32
	Changed bool
}

func (bfsVal) Size() int64 { return 5 }

type distAccum int32

func (distAccum) Size() int64 { return 5 }

type bfsProgram struct{}

func (bfsProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	d := srcVal.(bfsVal).Dist
	if d < 0 {
		return nil
	}
	return distAccum(d + 1)
}

func (bfsProgram) Sum(a, b gas.Accum) gas.Accum {
	if a.(distAccum) < b.(distAccum) {
		return a
	}
	return b
}

func (bfsProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	ov := old.(bfsVal)
	if acc == nil {
		// Only the source's first activation gathers nothing while
		// already holding a distance: it must scatter its frontier.
		return bfsVal{Dist: ov.Dist, Changed: ov.Dist >= 0}
	}
	d := int32(acc.(distAccum))
	if ov.Dist < 0 || d < ov.Dist {
		return bfsVal{Dist: d, Changed: true}
	}
	return bfsVal{Dist: ov.Dist, Changed: false}
}

func (bfsProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	return newVal.(bfsVal).Changed
}

// BFS runs breadth-first search from src (out-edges only, as the paper
// does for directed graphs).
func BFS(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.BFSResult, *gas.Stats, error) {
	cfg := gas.Config{
		Program:          bfsProgram{},
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) gas.Value {
			if v == src {
				return bfsVal{Dist: 0}
			}
			return bfsVal{Dist: -1}
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
	}
	res, err := gas.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.BFSResult{}, nil, err
	}
	out := algo.BFSResult{Levels: make([]int32, g.NumVertices())}
	maxLevel := int32(0)
	for v, val := range res.Values {
		d := val.(bfsVal).Dist
		out.Levels[v] = d
		if d >= 0 {
			out.Visited++
			if d > maxLevel {
				maxLevel = d
			}
		}
	}
	out.Iterations = int(maxLevel)
	return out, &res.Stats, nil
}

// ---- SSSP -----------------------------------------------------------

type ssspVal struct {
	Dist    int64
	Changed bool
}

func (ssspVal) Size() int64 { return 9 }

type wdistAccum int64

func (wdistAccum) Size() int64 { return 9 }

// ssspProgram relaxes weighted out-arcs: gather takes the minimum of
// in-neighbour distance + arc weight, recomputing the weight in O(1)
// from the endpoints (WeightOf) instead of shipping weight arrays to
// the mirrors.
type ssspProgram struct {
	g *graph.Graph
}

func (p ssspProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	d := srcVal.(ssspVal).Dist
	if d < 0 {
		return nil
	}
	return wdistAccum(d + int64(p.g.WeightOf(src, v)))
}

func (ssspProgram) Sum(a, b gas.Accum) gas.Accum {
	if a.(wdistAccum) < b.(wdistAccum) {
		return a
	}
	return b
}

func (ssspProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	ov := old.(ssspVal)
	if acc == nil {
		// Only the source's first activation gathers nothing while
		// already holding a distance: it must scatter its frontier.
		return ssspVal{Dist: ov.Dist, Changed: ov.Dist >= 0}
	}
	d := int64(acc.(wdistAccum))
	if ov.Dist < 0 || d < ov.Dist {
		return ssspVal{Dist: d, Changed: true}
	}
	return ssspVal{Dist: ov.Dist, Changed: false}
}

func (ssspProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	return newVal.(ssspVal).Changed
}

// SSSP runs weighted single-source shortest paths from src. The
// integer weights make every relaxation order produce byte-identical
// distances.
func SSSP(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.SSSPResult, *gas.Stats, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, nil, fmt.Errorf("gasalgo: SSSP requires a weighted graph")
	}
	cfg := gas.Config{
		Program:          ssspProgram{g: g},
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) gas.Value {
			if v == src {
				return ssspVal{Dist: 0}
			}
			return ssspVal{Dist: -1}
		},
		InitiallyActive: func(v graph.VertexID) bool { return v == src },
	}
	res, err := gas.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.SSSPResult{}, nil, err
	}
	out := algo.SSSPResult{Dist: make([]int64, g.NumVertices())}
	for v, val := range res.Values {
		d := val.(ssspVal).Dist
		out.Dist[v] = d
		if d >= 0 {
			out.Visited++
		}
	}
	out.Iterations = res.Stats.Iterations
	return out, &res.Stats, nil
}

// ---- CONN -----------------------------------------------------------

type connVal struct {
	Label   graph.VertexID
	Changed bool
}

func (connVal) Size() int64 { return 5 }

type labelAccum graph.VertexID

func (labelAccum) Size() int64 { return 5 }

type connProgram struct{}

func (connProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	return labelAccum(srcVal.(connVal).Label)
}

func (connProgram) Sum(a, b gas.Accum) gas.Accum {
	if a.(labelAccum) < b.(labelAccum) {
		return a
	}
	return b
}

func (connProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	ov := old.(connVal)
	if acc == nil {
		return connVal{Label: ov.Label}
	}
	if l := graph.VertexID(acc.(labelAccum)); l < ov.Label {
		return connVal{Label: l, Changed: true}
	}
	return connVal{Label: ov.Label}
}

func (connProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	return newVal.(connVal).Changed
}

// Conn runs min-label weakly connected components.
func Conn(g *graph.Graph, hw cluster.Hardware, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.ConnResult, *gas.Stats, error) {
	cfg := gas.Config{
		Program:          connProgram{},
		GatherBoth:       true,
		ScatterBoth:      true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) gas.Value {
			return connVal{Label: v}
		},
	}
	res, err := gas.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.ConnResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for v, val := range res.Values {
		labels[v] = val.(connVal).Label
	}
	return algo.ConnResult{
		Labels:     labels,
		Components: algo.CountLabels(labels),
		Iterations: res.Stats.Iterations,
	}, &res.Stats, nil
}

// ---- CD -------------------------------------------------------------

type cdVal struct {
	Label graph.VertexID
	Score float64
}

func (cdVal) Size() int64 { return 14 }

// votesAccum collects the neighbourhood's (label, score) votes.
type votesAccum []algo.LabelScore

func (v votesAccum) Size() int64 { return int64(len(v)) * 14 }

type cdProgram struct {
	attenuation float64
}

func (cdProgram) Gather(src, v graph.VertexID, srcVal, vVal gas.Value) gas.Accum {
	sv := srcVal.(cdVal)
	return votesAccum{{Label: sv.Label, Score: sv.Score}}
}

func (cdProgram) Sum(a, b gas.Accum) gas.Accum {
	// In-place append: the engine folds left-to-right and gather
	// returns fresh slices, so a's backing array is owned here.
	return append(a.(votesAccum), b.(votesAccum)...)
}

func (p cdProgram) Apply(v graph.VertexID, old gas.Value, acc gas.Accum) gas.Value {
	ov := old.(cdVal)
	if acc == nil {
		return ov
	}
	votes := append([]algo.LabelScore(nil), acc.(votesAccum)...)
	if l, s, ok := algo.ChooseLabel(votes, p.attenuation); ok {
		return cdVal{Label: l, Score: s}
	}
	return ov
}

func (cdProgram) Scatter(v, dst graph.VertexID, newVal, dstVal gas.Value) bool {
	// Synchronous Leung label propagation recomputes every vertex each
	// round; convergence is detected globally (AfterIteration).
	return true
}

// CD runs Leung et al. community detection with GraphLab's global
// termination check.
func CD(g *graph.Graph, hw cluster.Hardware, p algo.Params, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.CDResult, *gas.Stats, error) {
	prevLabels := make([]graph.VertexID, g.NumVertices())
	for v := range prevLabels {
		prevLabels[v] = graph.VertexID(v)
	}
	cfg := gas.Config{
		Program:          cdProgram{attenuation: p.CDHopAttenuation},
		MaxIterations:    p.CDMaxIterations,
		GatherBoth:       true,
		ScatterBoth:      true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) gas.Value {
			return cdVal{Label: v, Score: p.CDInitialScore}
		},
		AfterIteration: func(iter int, values []gas.Value) bool {
			changed := false
			for v, val := range values {
				l := val.(cdVal).Label
				if l != prevLabels[v] {
					changed = true
					prevLabels[v] = l
				}
			}
			return !changed
		},
	}
	res, err := gas.Run(g, hw, cfg, profile)
	if err != nil {
		return algo.CDResult{}, nil, err
	}
	labels := make([]graph.VertexID, g.NumVertices())
	for v, val := range res.Values {
		labels[v] = val.(cdVal).Label
	}
	return algo.CDResult{
		Labels:      labels,
		Communities: algo.CountLabels(labels),
		Iterations:  res.Stats.Iterations,
	}, &res.Stats, nil
}

// ---- EVO ------------------------------------------------------------

// EVO runs Forest Fire evolution. The burn model is the shared
// deterministic one; the engine-level work per iteration — touched
// vertices synchronising their new edges to their mirrors — is charged
// to the profile directly.
func EVO(g *graph.Graph, hw cluster.Hardware, p algo.Params, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.EVOResult, error) {
	if profile != nil {
		profile.AddPhase(cluster.Phase{
			Name: "gas:setup", Kind: cluster.PhaseSetup, Jobs: 1, Tasks: hw.Nodes,
		})
		loaders := 1
		if mp {
			loaders = hw.Nodes
		}
		parseOps := int64(g.NumVertices()) + g.AdjSize()
		profile.AddPhase(cluster.Phase{
			Name: "gas:load", Kind: cluster.PhaseRead,
			DiskRead: inputBytes, IONodes: loaders, Net: inputBytes,
			Ops: parseOps, MaxPartOps: parseOps / int64(loaders),
		})
	}
	ov := algo.NewOverlay(g)
	for it, batch := range algo.BatchSizes(g.NumVertices(), p) {
		var ops, net int64
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := algo.ForestFireBurn(newID, int(newID), p, ov.Neighbors)
			ov.AddEdges(edges)
			// Each burn edge is an apply+mirror-sync on its target.
			ops += int64(len(edges))
			net += int64(len(edges)) * 10
		}
		if profile != nil {
			profile.AddPhase(cluster.Phase{
				Name: evoPhaseName(it), Kind: cluster.PhaseCompute,
				Ops: ops, Net: net, Barriers: 1,
			})
		}
	}
	if profile != nil {
		res := ov.Result()
		profile.AddPhase(cluster.Phase{
			Name: "gas:finalize", Kind: cluster.PhaseWrite,
			DiskWrite: int64(res.NewEdges) * 10,
		})
		profile.Iterations = p.EVOIterations
	}
	return ov.Result(), nil
}

func evoPhaseName(it int) string {
	return fmt.Sprintf("gas:evo-%d", it)
}
