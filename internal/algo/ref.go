package algo

import (
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// Reference sequential implementations. Every platform implementation
// is validated against these.

// RefStats computes STATS directly.
func RefStats(g *graph.Graph) StatsResult {
	return StatsResult{
		Vertices: int64(g.NumVertices()),
		Edges:    g.NumEdges(),
		AvgLCC:   g.AvgLCC(),
	}
}

// RefBFS runs the reference breadth-first search: a sequential search
// from src through one FIFO queue, following out-edges only (as the
// paper does for directed graphs). The queue holds each level after
// the one before, so a vertex's level is that of the first vertex it
// is reached from, plus one.
func RefBFS(g *graph.Graph, src graph.VertexID) BFSResult {
	level := make([]int32, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := make([]graph.VertexID, len(level))
	queue[0] = src
	tail := 1
	for head := 0; head < tail; head++ {
		u := queue[head]
		for _, v := range g.Out(u) {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue[tail] = v
				tail++
			}
		}
	}
	return BFSOf(level)
}

// RefBFSTree is RefBFS with a parent array: the parent of each reached
// non-source vertex is its smallest in-neighbour one level up. That is
// the parent rule BFSMultiSource meets in either direction, so this is
// the oracle every sweep lane and daemon answer is compared against.
func RefBFSTree(g *graph.Graph, src graph.VertexID) *BFSTree {
	t := &BFSTree{BFSResult: RefBFS(g, src), Parents: make([]graph.VertexID, g.NumVertices())}
	for vi, lv := range t.Levels {
		v := graph.VertexID(vi)
		switch {
		case lv < 0:
			t.Parents[v] = -1
		case lv == 0:
			t.Parents[v] = v
		default:
			for _, u := range g.In(v) {
				if t.Levels[u] == lv-1 {
					t.Parents[v] = u
					break
				}
			}
		}
	}
	return t
}

// RefConn computes weakly connected components; labels are component
// minima, matching the label-propagation fixed point. Iterations
// reports the rounds synchronous label propagation would need, since
// that is what the platforms execute and what the paper reports (e.g.
// 20 iterations on Citation, 6 on DotaLeague).
func RefConn(g *graph.Graph) ConnResult {
	labels := g.ConnectedComponents()

	// Measure synchronous propagation rounds: labels move one hop per
	// round; rounds = max over vertices of distance to its component's
	// minimum vertex, via multi-source BFS from all minima at once.
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var frontier []graph.VertexID
	for v := 0; v < n; v++ {
		if labels[v] == graph.VertexID(v) {
			dist[v] = 0
			frontier = append(frontier, graph.VertexID(v))
		}
	}
	rounds := 0
	for len(frontier) > 0 {
		var next []graph.VertexID
		for _, u := range frontier {
			// Weak connectivity: In as well as Out on directed graphs.
			var in []graph.VertexID
			if g.Directed() {
				in = g.In(u)
			}
			for _, nbrs := range [2][]graph.VertexID{g.Out(u), in} {
				for _, v := range nbrs {
					if dist[v] < 0 {
						dist[v] = dist[u] + 1
						next = append(next, v)
					}
				}
			}
		}
		if len(next) > 0 {
			rounds++
		}
		frontier = next
	}
	return ConnResult{
		Labels:     labels,
		Components: CountLabels(labels),
		// One extra round to detect quiescence, as the platforms do.
		Iterations: rounds + 1,
	}
}

// cdBlock is the number of vertices per task of a RefCD round, as
// graph's triangleBlock is of AvgLCC: per-vertex work follows degree,
// which is uneven, so blocks are small enough to balance.
const cdBlock = 256

// RefCD runs synchronous community detection (Leung et al.) for up to
// p.CDMaxIterations rounds. A round is a pure function of the previous
// round's labels and scores, so it runs over cdBlock-vertex blocks in
// parallel, each worker filling one vote buffer of its own. Every
// vertex hands ChooseLabel the same votes whatever the schedule (Out,
// then In on directed graphs), and ChooseLabel sorts them, so the
// result does not depend on the worker count.
func RefCD(g *graph.Graph, p Params) CDResult {
	n := g.NumVertices()
	labels, newLabels := make([]graph.VertexID, n), make([]graph.VertexID, n)
	scores, newScores := make([]float64, n), make([]float64, n)
	for v := range labels {
		labels[v] = graph.VertexID(v)
		scores[v] = p.CDInitialScore
	}
	tasks := (n + cdBlock - 1) / cdBlock
	workers := par.Workers()
	votes := make([][]LabelMsg, min(workers, tasks))
	changed := make([]bool, tasks)
	round := func(w, b int) {
		lo, hi := b*cdBlock, min((b+1)*cdBlock, n)
		buf, ch := votes[w], false
		for v := graph.VertexID(lo); v < graph.VertexID(hi); v++ {
			var in []graph.VertexID
			if g.Directed() {
				in = g.In(v)
			}
			buf = buf[:0]
			for _, nbrs := range [2][]graph.VertexID{g.Out(v), in} {
				for _, u := range nbrs {
					buf = append(buf, LabelMsg{labels[u], scores[u]})
				}
			}
			l, s, ok := ChooseLabel(buf, p.CDHopAttenuation)
			if !ok {
				newLabels[v], newScores[v] = labels[v], scores[v]
				continue
			}
			newLabels[v], newScores[v] = l, s
			if l != labels[v] {
				ch = true
			}
		}
		votes[w], changed[b] = buf, ch
	}
	iters := 0
	for iter := 0; iter < p.CDMaxIterations; iter++ {
		par.For(tasks, workers, round)
		labels, newLabels = newLabels, labels
		scores, newScores = newScores, scores
		iters++
		if !slices.Contains(changed, true) {
			break
		}
	}
	return CDResult{Labels: labels, Communities: CountLabels(labels), Iterations: iters}
}

// RefEVO runs the Forest Fire evolution over p.EVOIterations batches.
func RefEVO(g *graph.Graph, p Params) EVOResult {
	ov := NewOverlay(g)
	for _, batch := range BatchSizes(g.NumVertices(), p) {
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := ForestFireBurn(newID, int(newID), p, ov.Neighbors)
			ov.AddEdges(edges)
		}
	}
	return ov.Result()
}

// Overlay extends a base graph with evolution edges without rebuilding
// the CSR; it supplies the NeighborFn for Forest Fire burns and tracks
// the growth for EVOResult.
type Overlay struct {
	base     *graph.Graph
	nextID   graph.VertexID
	extraOut map[graph.VertexID][]graph.VertexID
	extraIn  map[graph.VertexID][]graph.VertexID
	added    []graph.Edge
}

// NewOverlay wraps a base graph.
func NewOverlay(g *graph.Graph) *Overlay {
	return &Overlay{
		base:     g,
		nextID:   graph.VertexID(g.NumVertices()),
		extraOut: make(map[graph.VertexID][]graph.VertexID),
		extraIn:  make(map[graph.VertexID][]graph.VertexID),
	}
}

// AddVertex allocates the next vertex ID.
func (o *Overlay) AddVertex() graph.VertexID {
	id := o.nextID
	o.nextID++
	return id
}

// NumVertices returns the evolved vertex count.
func (o *Overlay) NumVertices() int { return int(o.nextID) }

// AddEdges records burn edges.
func (o *Overlay) AddEdges(edges []graph.Edge) {
	for _, e := range edges {
		o.extraOut[e.Src] = append(o.extraOut[e.Src], e.Dst)
		o.extraIn[e.Dst] = append(o.extraIn[e.Dst], e.Src)
		o.added = append(o.added, e)
	}
}

// Mark returns how far the overlay has grown: its vertex count and the
// number of edges added. Rewind returns to a mark.
func (o *Overlay) Mark() (vertices, edges int) { return int(o.nextID), len(o.added) }

// Rewind drops every vertex and edge added since Mark returned
// vertices and edges.
func (o *Overlay) Rewind(vertices, edges int) {
	for _, e := range o.added[edges:] {
		dropLast(o.extraOut, e.Src)
		dropLast(o.extraIn, e.Dst)
	}
	o.added = o.added[:edges]
	o.nextID = graph.VertexID(vertices)
}

// dropLast removes the last neighbour m holds for v.
func dropLast(m map[graph.VertexID][]graph.VertexID, v graph.VertexID) {
	if s := m[v]; len(s) > 1 {
		m[v] = s[:len(s)-1]
	} else {
		delete(m, v)
	}
}

// Neighbors is the NeighborFn view over base + overlay.
func (o *Overlay) Neighbors(v graph.VertexID) (out, in []graph.VertexID) {
	if int(v) < o.base.NumVertices() {
		out = o.base.Out(v)
		in = o.base.In(v)
	}
	if extra, ok := o.extraOut[v]; ok {
		out = append(append([]graph.VertexID{}, out...), extra...)
	}
	if extra, ok := o.extraIn[v]; ok {
		in = append(append([]graph.VertexID{}, in...), extra...)
	}
	return out, in
}

// Result summarises the evolution.
func (o *Overlay) Result() EVOResult {
	edges := append([]graph.Edge(nil), o.added...)
	SortEdges(edges)
	return EVOResult{
		NewVertices: int(o.nextID) - o.base.NumVertices(),
		NewEdges:    len(edges),
		FinalV:      int(o.nextID),
		FinalE:      o.base.NumEdges() + int64(len(edges)),
		Edges:       edges,
	}
}

// distHeap is the Dijkstra priority queue (distance, ties by vertex).
type distHeap struct {
	v []graph.VertexID
	d []int64
}

func (h *distHeap) Len() int { return len(h.v) }
func (h *distHeap) Less(i, j int) bool {
	if h.d[i] != h.d[j] {
		return h.d[i] < h.d[j]
	}
	return h.v[i] < h.v[j]
}
func (h *distHeap) Swap(i, j int) {
	h.v[i], h.v[j] = h.v[j], h.v[i]
	h.d[i], h.d[j] = h.d[j], h.d[i]
}
func (h *distHeap) Push(x any) {
	p := x.([2]int64)
	h.v = append(h.v, graph.VertexID(p[0]))
	h.d = append(h.d, p[1])
}
func (h *distHeap) Pop() any {
	n := len(h.v) - 1
	p := [2]int64{int64(h.v[n]), h.d[n]}
	h.v, h.d = h.v[:n], h.d[:n]
	return p
}

// RefSSSP runs the reference single-source shortest paths: a plain
// sequential Dijkstra over the weighted out-adjacency. Distances are
// exact, so every platform's SSSP must match it byte for byte.
// Iterations reports the synchronous relaxation rounds a
// Bellman-Ford-style platform needs: the maximum number of edges on
// any shortest path, plus the quiescence-detection round.
func RefSSSP(g *graph.Graph, src graph.VertexID) SSSPResult {
	if !g.Weighted() {
		panic("algo: RefSSSP on unweighted graph (use graph.WithWeights)")
	}
	n := g.NumVertices()
	r := SSSPResult{Dist: make([]int64, n)}
	hops := make([]int32, n)
	for i := range r.Dist {
		r.Dist[i] = -1
	}
	if n == 0 {
		return r
	}
	r.Dist[src] = 0
	h := &distHeap{}
	heap.Push(h, [2]int64{int64(src), 0})
	maxHops := int32(0)
	counted := make([]bool, n)
	for h.Len() > 0 {
		p := heap.Pop(h).([2]int64)
		u, du := graph.VertexID(p[0]), p[1]
		if r.Dist[u] != du {
			continue // stale entry
		}
		// A vertex can be re-expanded when a hop-shorter path of equal
		// weight is found; count it once.
		if !counted[u] {
			counted[u] = true
			r.Visited++
		}
		if hops[u] > maxHops {
			maxHops = hops[u]
		}
		out, ws := g.Out(u), g.OutWeights(u)
		for i, v := range out {
			cand := du + int64(ws[i])
			if r.Dist[v] == -1 || cand < r.Dist[v] {
				r.Dist[v] = cand
				hops[v] = hops[u] + 1
				heap.Push(h, [2]int64{int64(v), cand})
			} else if cand == r.Dist[v] && hops[u]+1 < hops[v] {
				// Same distance over fewer hops: synchronous engines
				// settle it in the earlier round.
				hops[v] = hops[u] + 1
				heap.Push(h, [2]int64{int64(v), cand})
			}
		}
	}
	r.Iterations = int(maxHops) + 1
	return r
}

// ValidateBFSTree checks a parent-array BFS certificate in O(V + E)
// without re-running any traversal — the check the kernel tests use
// instead of recomputing a reference BFS per call site. The levels and
// counters must pass ValidateBFS; on top of that the source is its own
// parent, every other reached vertex's parent is reached one level
// above it across a real arc, and unreached vertices have no parent.
func ValidateBFSTree(g *graph.Graph, src graph.VertexID, t *BFSTree) error {
	n := g.NumVertices()
	if len(t.Levels) != n || len(t.Parents) != n {
		return fmt.Errorf("levels/parents lengths %d/%d != V %d", len(t.Levels), len(t.Parents), n)
	}
	if n == 0 {
		return nil
	}
	if err := ValidateBFS(g, src, &t.BFSResult); err != nil {
		return err
	}
	if t.Parents[src] != src {
		return fmt.Errorf("source parent %d, want self", t.Parents[src])
	}
	for vi, lv := range t.Levels {
		v := graph.VertexID(vi)
		p := t.Parents[vi]
		switch {
		case v == src: // checked above
		case lv < 0:
			if p != -1 {
				return fmt.Errorf("unreached vertex %d has parent %d", v, p)
			}
		case p < 0 || int(p) >= n:
			return fmt.Errorf("vertex %d has parent %d out of range", v, p)
		case t.Levels[p] != lv-1:
			return fmt.Errorf("vertex %d at level %d has parent %d at level %d", v, lv, p, t.Levels[p])
		case !g.HasEdge(p, v):
			return fmt.Errorf("parent arc (%d,%d) does not exist", p, v)
		}
	}
	return nil
}

// ValidateSSSP checks shortest-path distances in O(V + E) by the
// triangle-inequality certificate: the source is at 0, no arc can
// relax any distance further, and every reached non-source vertex has
// a tight incoming arc (so its distance is actually achieved).
func ValidateSSSP(g *graph.Graph, src graph.VertexID, r *SSSPResult) error {
	n := g.NumVertices()
	if len(r.Dist) != n {
		return fmt.Errorf("dist length %d != V %d", len(r.Dist), n)
	}
	if n == 0 {
		return nil
	}
	if r.Dist[src] != 0 {
		return fmt.Errorf("source distance = %d, want 0", r.Dist[src])
	}
	visited := 0
	for vi, d := range r.Dist {
		v := graph.VertexID(vi)
		if d < 0 {
			continue
		}
		visited++
		if v == src {
			continue
		}
		tight := false
		ins, ws := g.In(v), g.InWeights(v)
		for i, u := range ins {
			if r.Dist[u] >= 0 && r.Dist[u]+int64(ws[i]) == d {
				tight = true
				break
			}
		}
		if !tight {
			return fmt.Errorf("vertex %d at distance %d has no tight in-arc", v, d)
		}
	}
	for u := graph.VertexID(0); u < graph.VertexID(n); u++ {
		if r.Dist[u] < 0 {
			continue
		}
		out, ws := g.Out(u), g.OutWeights(u)
		for i, v := range out {
			if r.Dist[v] < 0 || r.Dist[v] > r.Dist[u]+int64(ws[i]) {
				return fmt.Errorf("arc (%d,%d) relaxes %d beyond %d", u, v, r.Dist[v], r.Dist[u]+int64(ws[i]))
			}
		}
	}
	if visited != r.Visited {
		return fmt.Errorf("Visited = %d, dists say %d", r.Visited, visited)
	}
	return nil
}

// ValidateBFS checks a BFS result against the Graph500-style
// soundness rules (the paper's BFS is the Graph500 kernel): the source
// has level 0; every reached vertex except the source has a reachable
// in-neighbour exactly one level above it; every edge spans at most
// one level; and unreached vertices have no reached in-neighbour.
// It returns nil when the result is a valid BFS of g from src.
func ValidateBFS(g *graph.Graph, src graph.VertexID, r *BFSResult) error {
	if len(r.Levels) != g.NumVertices() {
		return fmt.Errorf("levels length %d != V %d", len(r.Levels), g.NumVertices())
	}
	if r.Levels[src] != 0 {
		return fmt.Errorf("source level = %d, want 0", r.Levels[src])
	}
	visited := 0
	maxLevel := int32(0)
	for v, lv := range r.Levels {
		if lv < 0 {
			continue
		}
		visited++
		if lv > maxLevel {
			maxLevel = lv
		}
		if lv == 0 && graph.VertexID(v) != src {
			return fmt.Errorf("vertex %d has level 0 but is not the source", v)
		}
		if lv > 0 {
			ok := false
			for _, u := range g.In(graph.VertexID(v)) {
				if r.Levels[u] == lv-1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("vertex %d at level %d has no in-neighbour at level %d", v, lv, lv-1)
			}
		}
	}
	// Edge relaxation: no out-edge jumps more than one level down.
	var bad error
	g.Edges(func(e graph.Edge) {
		if bad != nil {
			return
		}
		lu, lv := r.Levels[e.Src], r.Levels[e.Dst]
		if lu >= 0 && (lv < 0 || lv > lu+1) {
			bad = fmt.Errorf("edge (%d,%d) spans levels %d -> %d", e.Src, e.Dst, lu, lv)
		}
		if !g.Directed() && lv >= 0 && (lu < 0 || lu > lv+1) {
			bad = fmt.Errorf("edge (%d,%d) spans levels %d -> %d", e.Src, e.Dst, lv, lu)
		}
	})
	if bad != nil {
		return bad
	}
	if visited != r.Visited {
		return fmt.Errorf("Visited = %d, levels say %d", r.Visited, visited)
	}
	if int(maxLevel) != r.Iterations {
		return fmt.Errorf("Iterations = %d, levels say %d", r.Iterations, maxLevel)
	}
	return nil
}
