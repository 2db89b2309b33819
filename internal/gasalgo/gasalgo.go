// Package gasalgo implements the paper's five algorithms as
// Gather-Apply-Scatter programs for the GraphLab-model engine. The
// programs exploit GraphLab's dynamic computation (only signalled
// vertices run) and pay its structural costs: undirected edge doubling
// and mirror-synchronisation traffic.
//
// Each program folds its gathers into a typed accumulator the engine
// reuses per worker: a minimum for BFS, SSSP and CONN, the worker's
// vote buffer for CD (sorted in place by algo.ChooseLabel), and for
// STATS a link count plus the vertex's marked neighbourhood, acquired
// at its first gathered edge and released by Apply.
package gasalgo

import (
	"fmt"
	"slices"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/fault"
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

// statsAccum folds closing-link counts (float: a neighbour reachable in
// both directions contributes its count half per edge). It carries the
// vertex's marked neighbourhood from its first gathered edge to Apply,
// so the neighbourhood is marked once per vertex, not once per edge.
type statsAccum struct {
	links float64
	lc    *algo.LinkCounter
}

type statsProgram struct {
	g *graph.Graph
}

func (p statsProgram) Gather(acc *statsAccum, has bool, src, v graph.VertexID, srcVal, vVal statsVal) bool {
	if !has {
		*acc = statsAccum{lc: algo.AcquireLinkCounter(p.g.NumVertices(), vVal.Nbrs)}
	}
	links := float64(acc.lc.Links(srcVal.Out))
	if p.g.Directed() && contains(p.g.Out(v), src) && contains(p.g.In(v), src) {
		// src is gathered once per direction; halve so the pair of
		// calls contributes the neighbour exactly once.
		links /= 2
	}
	acc.links += links
	return true
}

func (statsProgram) Apply(v graph.VertexID, old statsVal, acc *statsAccum, has bool) statsVal {
	links := 0.0
	if has {
		links = acc.links
		acc.lc.Release()
		acc.lc = nil
	}
	old.LCC = algo.LCCOf(int64(links+0.5), len(old.Nbrs))
	return old
}

func (statsProgram) Scatter(v, dst graph.VertexID, newVal, dstVal statsVal) bool {
	return false // one round
}

func (statsProgram) ValueSize(v statsVal) int64  { return int64(len(v.Nbrs)+len(v.Out))*5 + 8 }
func (statsProgram) AccumSize(*statsAccum) int64 { return 8 }

func contains(sorted []graph.VertexID, x graph.VertexID) bool {
	_, ok := slices.BinarySearch(sorted, x)
	return ok
}

// Stats runs STATS as a one-round GAS program.
func Stats(g *graph.Graph, hw cluster.Hardware, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.StatsResult, *gas.Stats, error) {
	cfg := gas.Config[statsVal, statsAccum]{
		Program:          statsProgram{g: g},
		MaxIterations:    1,
		GatherBoth:       true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) statsVal {
			var in []graph.VertexID
			if g.Directed() {
				in = g.In(v)
			}
			return statsVal{Nbrs: algo.NeighborhoodOf(g.Out(v), in), Out: g.Out(v)}
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
		lccSum += v.LCC
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

// bfsProgram folds the smallest in-neighbour distance + 1.
type bfsProgram struct{}

func (bfsProgram) Gather(acc *int32, has bool, src, v graph.VertexID, srcVal, vVal bfsVal) bool {
	d := srcVal.Dist
	if d < 0 {
		return false
	}
	if !has || d+1 < *acc {
		*acc = d + 1
	}
	return true
}

func (bfsProgram) Apply(v graph.VertexID, old bfsVal, acc *int32, has bool) bfsVal {
	if !has {
		// Only the source's first activation gathers nothing while
		// already holding a distance: it must scatter its frontier.
		return bfsVal{Dist: old.Dist, Changed: old.Dist >= 0}
	}
	if d := *acc; old.Dist < 0 || d < old.Dist {
		return bfsVal{Dist: d, Changed: true}
	}
	return bfsVal{Dist: old.Dist, Changed: false}
}

func (bfsProgram) Scatter(v, dst graph.VertexID, newVal, dstVal bfsVal) bool {
	return newVal.Changed
}

func (bfsProgram) ValueSize(bfsVal) int64 { return 5 }
func (bfsProgram) AccumSize(*int32) int64 { return 5 }

// BFS runs breadth-first search from src (out-edges only, as the paper
// does for directed graphs).
func BFS(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.BFSResult, *gas.Stats, error) {
	cfg := gas.Config[bfsVal, int32]{
		Program:          bfsProgram{},
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) bfsVal {
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
	levels := make([]int32, len(res.Values))
	for v, val := range res.Values {
		levels[v] = val.Dist
	}
	return algo.BFSOf(levels), &res.Stats, nil
}

// ---- SSSP -----------------------------------------------------------

type ssspVal struct {
	Dist    int64
	Changed bool
}

// ssspProgram relaxes weighted out-arcs: gather folds the minimum of
// in-neighbour distance + arc weight, recomputing the weight in O(1)
// from the endpoints (WeightOf) instead of shipping weight arrays to
// the mirrors.
type ssspProgram struct {
	g *graph.Graph
}

func (p ssspProgram) Gather(acc *int64, has bool, src, v graph.VertexID, srcVal, vVal ssspVal) bool {
	d := srcVal.Dist
	if d < 0 {
		return false
	}
	if d += int64(p.g.WeightOf(src, v)); !has || d < *acc {
		*acc = d
	}
	return true
}

func (ssspProgram) Apply(v graph.VertexID, old ssspVal, acc *int64, has bool) ssspVal {
	if !has {
		// Only the source's first activation gathers nothing while
		// already holding a distance: it must scatter its frontier.
		return ssspVal{Dist: old.Dist, Changed: old.Dist >= 0}
	}
	if d := *acc; old.Dist < 0 || d < old.Dist {
		return ssspVal{Dist: d, Changed: true}
	}
	return ssspVal{Dist: old.Dist, Changed: false}
}

func (ssspProgram) Scatter(v, dst graph.VertexID, newVal, dstVal ssspVal) bool {
	return newVal.Changed
}

func (ssspProgram) ValueSize(ssspVal) int64 { return 9 }
func (ssspProgram) AccumSize(*int64) int64  { return 9 }

// SSSP runs weighted single-source shortest paths from src. The
// integer weights make every relaxation order produce byte-identical
// distances.
func SSSP(g *graph.Graph, hw cluster.Hardware, src graph.VertexID, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.SSSPResult, *gas.Stats, error) {
	if !g.Weighted() {
		return algo.SSSPResult{}, nil, fmt.Errorf("gasalgo: SSSP requires a weighted graph")
	}
	cfg := gas.Config[ssspVal, int64]{
		Program:          ssspProgram{g: g},
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) ssspVal {
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
	dist := make([]int64, len(res.Values))
	for v, val := range res.Values {
		dist[v] = val.Dist
	}
	return algo.SSSPOf(dist, res.Stats.Iterations), &res.Stats, nil
}

// ---- CONN -----------------------------------------------------------

type connVal struct {
	Label   graph.VertexID
	Changed bool
}

// connProgram folds the smallest neighbour label.
type connProgram struct{}

func (connProgram) Gather(acc *graph.VertexID, has bool, src, v graph.VertexID, srcVal, vVal connVal) bool {
	if !has || srcVal.Label < *acc {
		*acc = srcVal.Label
	}
	return true
}

func (connProgram) Apply(v graph.VertexID, old connVal, acc *graph.VertexID, has bool) connVal {
	if has && *acc < old.Label {
		return connVal{Label: *acc, Changed: true}
	}
	return connVal{Label: old.Label}
}

func (connProgram) Scatter(v, dst graph.VertexID, newVal, dstVal connVal) bool {
	return newVal.Changed
}

func (connProgram) ValueSize(connVal) int64         { return 5 }
func (connProgram) AccumSize(*graph.VertexID) int64 { return 5 }

// Conn runs min-label weakly connected components.
func Conn(g *graph.Graph, hw cluster.Hardware, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.ConnResult, *gas.Stats, error) {
	cfg := gas.Config[connVal, graph.VertexID]{
		Program:          connProgram{},
		GatherBoth:       true,
		ScatterBoth:      true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) connVal {
			return connVal{Label: v}
		},
	}
	res, err := gas.Run(g, hw, cfg, profile)
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
		Iterations: res.Stats.Iterations,
	}, &res.Stats, nil
}

// ---- CD -------------------------------------------------------------

type cdVal struct {
	Label graph.VertexID
	Score float64
}

// cdProgram collects the neighbourhood's (label, score) votes in the
// worker's reused vote buffer; Apply sorts it in place to choose.
type cdProgram struct {
	attenuation float64
}

func (cdProgram) Gather(acc *[]algo.LabelMsg, has bool, src, v graph.VertexID, srcVal, vVal cdVal) bool {
	if !has {
		*acc = (*acc)[:0]
	}
	*acc = append(*acc, algo.LabelMsg{Label: srcVal.Label, Score: srcVal.Score})
	return true
}

func (p cdProgram) Apply(v graph.VertexID, old cdVal, acc *[]algo.LabelMsg, has bool) cdVal {
	if !has {
		return old
	}
	if l, s, ok := algo.ChooseLabel(*acc, p.attenuation); ok {
		return cdVal{Label: l, Score: s}
	}
	return old
}

func (cdProgram) Scatter(v, dst graph.VertexID, newVal, dstVal cdVal) bool {
	// Synchronous Leung label propagation recomputes every vertex each
	// round; convergence is detected globally (AfterIteration).
	return true
}

func (cdProgram) ValueSize(cdVal) int64                  { return 14 }
func (cdProgram) AccumSize(votes *[]algo.LabelMsg) int64 { return int64(len(*votes)) * 14 }

// CD runs Leung et al. community detection with GraphLab's global
// termination check.
func CD(g *graph.Graph, hw cluster.Hardware, p algo.Params, inputBytes int64, mp bool, profile *cluster.ExecutionProfile) (algo.CDResult, *gas.Stats, error) {
	prevLabels := make([]graph.VertexID, g.NumVertices())
	for v := range prevLabels {
		prevLabels[v] = graph.VertexID(v)
	}
	cfg := gas.Config[cdVal, []algo.LabelMsg]{
		Program:          cdProgram{attenuation: p.CDHopAttenuation},
		MaxIterations:    p.CDMaxIterations,
		GatherBoth:       true,
		ScatterBoth:      true,
		MultiPartLoading: mp,
		InputBytes:       inputBytes,
		InitialValue: func(v graph.VertexID) cdVal {
			return cdVal{Label: v, Score: p.CDInitialScore}
		},
		AfterIteration: func(iter int, values []cdVal) bool {
			changed := false
			for v, val := range values {
				if val.Label != prevLabels[v] {
					changed = true
					prevLabels[v] = val.Label
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
		labels[v] = val.Label
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
// to the profile directly. Each batch is one synchronous iteration at
// the same fault site as gas.Run's: a failed attempt is charged as a
// recovery phase and the batch reruns from the pre-batch overlay.
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
	inj := profile.Injector()
	ov := algo.NewOverlay(g)
	for it, batch := range algo.BatchSizes(g.NumVertices(), p) {
		vertices, added := ov.Mark()
		var ops, net int64
		_, err := inj.Retry(fault.Site{Engine: "gas", Op: "iteration", Step: it, Task: fault.Any}, func(int) {
			ops, net = 0, 0
			for i := 0; i < batch; i++ {
				newID := ov.AddVertex()
				edges := algo.ForestFireBurn(newID, int(newID), p, ov.Neighbors)
				ov.AddEdges(edges)
				// Each burn edge is an apply+mirror-sync on its target.
				ops += int64(len(edges))
				net += int64(len(edges)) * 10
			}
		}, func(int) {
			// The failed attempt's burns are wasted work.
			profile.Session().R().Counter("task.retries").Add(1)
			profile.AddPhase(cluster.Phase{
				Name: evoPhaseName(it) + ":recovery", Kind: cluster.PhaseCompute,
				Ops: ops, Net: net, Barriers: 1,
			})
			ov.Rewind(vertices, added)
		})
		if err != nil {
			return algo.EVOResult{}, err
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
