// Package dbalgo implements the paper's five algorithms as embedded
// traversals over the Neo4j-model graph database: single-machine,
// cache-aware, lazy-reading. BFS on a low-coverage graph touches only
// the records it needs (fast even cold); STATS and CD walk
// neighbourhoods of neighbourhoods, which on a dense graph like
// DotaLeague exceeds any reasonable time budget (the paper's ">20
// hours" entries).
package dbalgo

import (
	"container/heap"
	"fmt"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graphdb"
)

// neighborhood returns the distinct sorted neighbourhood of v through
// the database session (both directions for directed graphs).
func neighborhood(r *graphdb.Run, g *graph.Graph, v graph.VertexID) []graph.VertexID {
	if !g.Directed() {
		return r.Neighbors(v)
	}
	rec := &algo.VertexRec{Out: r.Neighbors(v), In: r.InNeighbors(v)}
	return algo.NeighborhoodOf(rec)
}

// Stats computes STATS by brute-force neighbourhood traversal.
func Stats(db *graphdb.DB, profile *cluster.ExecutionProfile) (algo.StatsResult, error) {
	g := db.Graph()
	run := db.NewRun()
	n := g.NumVertices()
	var lccSum float64
	for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
		nbrs := neighborhood(run, g, v)
		lc := algo.AcquireLinkCounter(n, nbrs)
		var links int64
		for _, u := range nbrs {
			uOut := run.Neighbors(u)
			links += lc.Links(uOut)
			run.Charge(2 * int64(len(nbrs)+len(uOut)))
		}
		lc.Release()
		lccSum += algo.LCCOf(links, len(nbrs))
	}
	run.Finish("stats", profile)
	if profile != nil {
		profile.Iterations = 1
	}
	res := algo.StatsResult{Vertices: int64(n), Edges: g.NumEdges()}
	if n > 0 {
		res.AvgLCC = lccSum / float64(n)
	}
	return res, nil
}

// BFS runs a queue-based traversal from src following outgoing
// relationships, exactly as the embedded Neo4j implementation does.
func BFS(db *graphdb.DB, src graph.VertexID, profile *cluster.ExecutionProfile) (algo.BFSResult, error) {
	g := db.Graph()
	run := db.NewRun()
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	queue := []graph.VertexID{src}
	visited := 1
	maxLevel := int32(0)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range run.Neighbors(v) {
			if levels[u] < 0 {
				levels[u] = levels[v] + 1
				if levels[u] > maxLevel {
					maxLevel = levels[u]
				}
				visited++
				queue = append(queue, u)
			}
		}
	}
	run.Finish("bfs", profile)
	if profile != nil {
		profile.Iterations = int(maxLevel)
	}
	return algo.BFSResult{Levels: levels, Visited: visited, Iterations: int(maxLevel)}, nil
}

// wqueue is a binary heap of (distance, vertex) pairs with a vertex
// tie-break, for the Dijkstra traversal.
type wqueue struct {
	v []graph.VertexID
	d []int64
}

func (q *wqueue) Len() int { return len(q.v) }
func (q *wqueue) Less(i, j int) bool {
	if q.d[i] != q.d[j] {
		return q.d[i] < q.d[j]
	}
	return q.v[i] < q.v[j]
}
func (q *wqueue) Swap(i, j int) {
	q.v[i], q.v[j] = q.v[j], q.v[i]
	q.d[i], q.d[j] = q.d[j], q.d[i]
}
func (q *wqueue) Push(x any) {
	p := x.([2]int64)
	q.v = append(q.v, graph.VertexID(p[0]))
	q.d = append(q.d, p[1])
}
func (q *wqueue) Pop() any {
	n := len(q.v) - 1
	p := [2]int64{int64(q.v[n]), q.d[n]}
	q.v, q.d = q.v[:n], q.d[:n]
	return p
}

// SSSP runs Dijkstra from src over the weighted relationship store:
// each settled vertex's relationship chain is fetched lazily, and one
// weight property is read per relaxed arc (the extra Charge).
func SSSP(db *graphdb.DB, src graph.VertexID, profile *cluster.ExecutionProfile) (algo.SSSPResult, error) {
	g := db.Graph()
	if !g.Weighted() {
		return algo.SSSPResult{}, fmt.Errorf("dbalgo: SSSP requires a weighted graph")
	}
	run := db.NewRun()
	n := g.NumVertices()
	dist := make([]int64, n)
	hops := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := &wqueue{}
	heap.Push(q, [2]int64{int64(src), 0})
	visited := 0
	maxHops := int32(0)
	for q.Len() > 0 {
		p := heap.Pop(q).([2]int64)
		u, du := graph.VertexID(p[0]), p[1]
		if dist[u] != du {
			continue // stale queue entry
		}
		visited++
		if hops[u] > maxHops {
			maxHops = hops[u]
		}
		nbrs := run.Neighbors(u)
		ws := g.OutWeights(u)
		// One weight-property read per traversed relationship.
		run.Charge(int64(len(nbrs)))
		for i, w := range nbrs {
			nd := du + int64(ws[i])
			if dist[w] < 0 || nd < dist[w] {
				dist[w] = nd
				hops[w] = hops[u] + 1
				heap.Push(q, [2]int64{int64(w), nd})
			}
		}
	}
	run.Finish("sssp", profile)
	if profile != nil {
		profile.Iterations = int(maxHops)
	}
	return algo.SSSPResult{Dist: dist, Visited: visited, Iterations: int(maxHops)}, nil
}

// Conn labels weak components by scanning vertices in ID order and
// flooding from each unvisited one; the root of each flood is its
// component's minimum ID, matching the distributed fixed point.
func Conn(db *graphdb.DB, profile *cluster.ExecutionProfile) (algo.ConnResult, error) {
	g := db.Graph()
	run := db.NewRun()
	n := g.NumVertices()
	labels := make([]graph.VertexID, n)
	for i := range labels {
		labels[i] = -1
	}
	components := 0
	for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
		if labels[v] >= 0 {
			continue
		}
		components++
		labels[v] = v
		queue := []graph.VertexID{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			both := run.Neighbors(x)
			if g.Directed() {
				both = append(append([]graph.VertexID{}, both...), run.InNeighbors(x)...)
			}
			for _, u := range both {
				if labels[u] < 0 {
					labels[u] = v
					queue = append(queue, u)
				}
			}
		}
	}
	run.Finish("conn", profile)
	if profile != nil {
		profile.Iterations = 1
	}
	return algo.ConnResult{Labels: labels, Components: components, Iterations: 1}, nil
}

// CD runs the synchronous Leung et al. rounds over the database.
func CD(db *graphdb.DB, p algo.Params, profile *cluster.ExecutionProfile) (algo.CDResult, error) {
	g := db.Graph()
	run := db.NewRun()
	n := g.NumVertices()
	labels := make([]graph.VertexID, n)
	scores := make([]float64, n)
	for v := range labels {
		labels[v] = graph.VertexID(v)
		scores[v] = p.CDInitialScore
	}
	iters := 0
	for iter := 0; iter < p.CDMaxIterations; iter++ {
		newLabels := make([]graph.VertexID, n)
		newScores := make([]float64, n)
		changed := false
		for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
			nbrs := run.Neighbors(v)
			if g.Directed() {
				nbrs = append(append([]graph.VertexID{}, nbrs...), run.InNeighbors(v)...)
			}
			votes := make([]algo.LabelScore, 0, len(nbrs))
			for _, u := range nbrs {
				votes = append(votes, algo.LabelScore{Label: labels[u], Score: scores[u]})
			}
			// Each vote costs two transactional property reads (label
			// and score) plus the chooser's map updates — ~200 us of
			// embedded-API work per vote, the overhead that pushes
			// Neo4j's CD on dense graphs past the paper's 20-hour mark.
			run.Charge(int64(len(votes)) * 60)
			l, s, ok := algo.ChooseLabel(votes, p.CDHopAttenuation)
			if !ok {
				newLabels[v], newScores[v] = labels[v], scores[v]
				continue
			}
			newLabels[v], newScores[v] = l, s
			if l != labels[v] {
				changed = true
			}
		}
		labels, scores = newLabels, newScores
		iters++
		if !changed {
			break
		}
	}
	run.Finish("cd", profile)
	if profile != nil {
		profile.Iterations = iters
	}
	return algo.CDResult{Labels: labels, Communities: algo.CountLabels(labels), Iterations: iters}, nil
}

// EVO runs Forest Fire evolution with burns traversing the database
// (and paying its write costs for every created relationship).
func EVO(db *graphdb.DB, p algo.Params, profile *cluster.ExecutionProfile) (algo.EVOResult, error) {
	g := db.Graph()
	run := db.NewRun()
	ov := algo.NewOverlay(g)
	nbrs := func(v graph.VertexID) (out, in []graph.VertexID) {
		if int(v) < g.NumVertices() {
			// Touch the stored records through the session.
			run.Neighbors(v)
			if g.Directed() {
				run.InNeighbors(v)
			}
		}
		return ov.Neighbors(v)
	}
	for _, batch := range algo.BatchSizes(g.NumVertices(), p) {
		for i := 0; i < batch; i++ {
			newID := ov.AddVertex()
			edges := algo.ForestFireBurn(newID, int(newID), p, nbrs)
			ov.AddEdges(edges)
			// Each new relationship is a transactional store write.
			run.DiskBytes += int64(len(edges)) * graphdb.RelRecordBytes
		}
	}
	run.Finish("evo", profile)
	if profile != nil {
		profile.Iterations = p.EVOIterations
	}
	return ov.Result(), nil
}
