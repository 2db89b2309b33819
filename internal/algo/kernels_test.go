package algo

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// mergeLinks is the sorted-merge intersection STATS used before the
// bitset LinkCounter: the oracle LinkCounter must match.
func mergeLinks(nbrs []graph.VertexID, senderOut []graph.VertexID) int64 {
	var links int64
	i, j := 0, 0
	for i < len(nbrs) && j < len(senderOut) {
		switch {
		case nbrs[i] < senderOut[j]:
			i++
		case nbrs[i] > senderOut[j]:
			j++
		default:
			links++
			i++
			j++
		}
	}
	return links
}

// chooseLabelMaps is the two-map ChooseLabel the run-scan replaced. It
// is the independent oracle for the update rule itself: RefCD calls
// ChooseLabel too, so engine-vs-reference tests cannot see a change to
// the rule.
func chooseLabelMaps(votes []LabelMsg, attenuation float64) (label graph.VertexID, score float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	sort.Slice(votes, func(i, j int) bool {
		if votes[i].Label != votes[j].Label {
			return votes[i].Label < votes[j].Label
		}
		return votes[i].Score < votes[j].Score
	})
	sum := make(map[graph.VertexID]float64, 8)
	best := make(map[graph.VertexID]float64, 8)
	for _, v := range votes {
		sum[v.Label] += v.Score
		if b, seen := best[v.Label]; !seen || v.Score > b {
			best[v.Label] = v.Score
		}
	}
	first := true
	var bestLabel graph.VertexID
	var bestSum float64
	for l, s := range sum {
		if first || s > bestSum || (s == bestSum && l < bestLabel) {
			bestLabel, bestSum, first = l, s, false
		}
	}
	score = best[bestLabel] - attenuation
	if score < 0 {
		score = 0
	}
	return bestLabel, score, true
}

// refCDSerial is RefCD as it was before its rounds ran by vertex
// blocks: one vertex at a time, fresh arrays every round and a fresh
// vote slice for every vertex. It is the oracle the blocked rounds must
// equal bit for bit.
func refCDSerial(g *graph.Graph, p Params) CDResult {
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
		for v := 0; v < n; v++ {
			nbrs := g.Out(graph.VertexID(v))
			if g.Directed() {
				nbrs = append(append([]graph.VertexID(nil), nbrs...), g.In(graph.VertexID(v))...)
			}
			votes := make([]LabelMsg, 0, 8)
			for _, u := range nbrs {
				votes = append(votes, LabelMsg{labels[u], scores[u]})
			}
			l, s, ok := ChooseLabel(votes, p.CDHopAttenuation)
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
	return CDResult{Labels: labels, Communities: CountLabels(labels), Iterations: iters}
}

// raggedCDGraph has three full blocks of RefCD and seven vertices over:
// a sparse random graph on the blocks, with extra arcs across every
// block edge, and a seven-vertex clique of its own at the tail. The
// clique settles in a few rounds while the rest keeps changing, so a
// round that took its changed flag from one block would stop early.
func raggedCDGraph(directed bool) *graph.Graph {
	const body = 3 * cdBlock
	n := body + 7
	rng := NewRand(5, int64(n))
	b := graph.NewBuilder(n, directed)
	for i := 0; i < 3*body; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(body)), graph.VertexID(rng.Intn(body)))
	}
	for edge := cdBlock; edge < body; edge += cdBlock {
		for i := 0; i < 16; i++ {
			b.AddEdge(graph.VertexID(edge-1-rng.Intn(4)), graph.VertexID(edge+rng.Intn(4)))
		}
	}
	for u := body; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

// TestRefCDMatchesSerial holds RefCD's blocked rounds to the
// one-vertex-at-a-time loop: random graphs of 1-24 vertices (edgeless
// and disconnected ones included) in one block, and a graph of three
// blocks and a ragged tail at GOMAXPROCS 1, 2 and 4, with round limits
// of 0 and 1 and runs that converge before their limit.
func TestRefCDMatchesSerial(t *testing.T) {
	check := func(label string, g *graph.Graph, p Params) (early bool) {
		t.Helper()
		got, want := RefCD(g, p), refCDSerial(g, p)
		if !reflect.DeepEqual(got, want) {
			v := 0
			for v < min(len(got.Labels), len(want.Labels)) && got.Labels[v] == want.Labels[v] {
				v++
			}
			t.Fatalf("%s, %d rounds: RefCD gives %d communities in %d rounds, one vertex at a time %d in %d; first label difference at vertex %d",
				label, p.CDMaxIterations, got.Communities, got.Iterations, want.Communities, want.Iterations, v)
		}
		return got.Iterations < p.CDMaxIterations
	}
	rng := NewRand(17)
	early := 0
	for i := 0; i < 400; i++ {
		n, directed := 1+rng.Intn(24), rng.Intn(2) == 1
		b := graph.NewBuilder(n, directed)
		for e := rng.Intn(2 * n); e > 0; e-- {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		p := DefaultParams(1)
		p.CDMaxIterations = []int{0, 1, 2, 5, 20}[rng.Intn(5)]
		p.CDHopAttenuation = []float64{0, 0.1, 0.25}[rng.Intn(3)]
		p.CDInitialScore = []float64{1, 0.5}[rng.Intn(2)]
		if check(fmt.Sprintf("graph %d (n=%d directed=%v)", i, n, directed), b.Build(), p) {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no random graph converged before its round limit")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, directed := range []bool{false, true} {
		g := raggedCDGraph(directed)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, rounds := range []int{0, 1, 5, 40} {
				p := DefaultParams(1)
				p.CDMaxIterations = rounds
				check(fmt.Sprintf("ragged graph (directed=%v) at GOMAXPROCS %d", directed, procs), g, p)
			}
		}
	}
}

// TestRefCDAllocsIndependentOfEdges pins that RefCD allocates per call
// and per worker, not per vertex or per round: KGS@8 has twice the
// vertices and edges of KGS@16 and must allocate the same count within
// a small slack (a further doubling of the reused vote buffer, and
// CountLabels's map). testing.AllocsPerRun runs at GOMAXPROCS 1.
func TestRefCDAllocsIndependentOfEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const slack = 16
	p := DefaultParams(42)
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(3, func() { RefCD(g, p) })
	}
	small, large := profileGraph(t, "KGS", 16), profileGraph(t, "KGS", 8)
	a, b := allocs(small), allocs(large)
	t.Logf("%.0f allocations on %v, %.0f on %v", a, small, b, large)
	if b > a+slack {
		t.Errorf("%.0f allocations on %v, %.0f on %v; want at most %d more", a, small, b, large, slack)
	}
}

// boundaryGraph is a random graph on n vertices whose vertices at the
// bitset word boundaries (63, 64, 65) and the last one are joined to
// each other, so lists cross every word edge the counter indexes.
func boundaryGraph(n, e int, directed bool, seed int64) *graph.Graph {
	rng := NewRand(seed, int64(n))
	b := graph.NewBuilder(n, directed)
	for i := 0; i < e; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	var boundary []graph.VertexID
	for _, v := range []int{0, 62, 63, 64, 65, n - 1} {
		if v < n {
			boundary = append(boundary, graph.VertexID(v))
		}
	}
	for _, u := range boundary {
		for _, v := range boundary {
			if rng.Next() < 0.7 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// requireCleared fails unless every word of a released counter's
// bitset is zero.
func requireCleared(t *testing.T, bits []uint64) {
	t.Helper()
	for i, w := range bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after Release, want 0", i, w)
		}
	}
}

func TestLinkCounterMatchesMerge(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4097} {
		for _, directed := range []bool{false, true} {
			g := boundaryGraph(n, 4*n, directed, 7)
			probe := NewRand(11, int64(n))
			for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
				var in []graph.VertexID
				if directed {
					in = g.In(v)
				}
				nbrs := NeighborhoodOf(g.Out(v), in)
				lc := AcquireLinkCounter(n, nbrs)
				// Every neighbour's list, a few arbitrary ones, and the
				// empty list.
				lists := [][]graph.VertexID{nil, {}}
				for _, u := range nbrs {
					lists = append(lists, g.Out(u))
				}
				for i := 0; i < 4; i++ {
					lists = append(lists, g.Out(graph.VertexID(probe.Intn(n))))
				}
				for _, list := range lists {
					if got, want := lc.Links(list), mergeLinks(nbrs, list); got != want {
						t.Fatalf("n=%d directed=%v v=%d: Links = %d, merge = %d", n, directed, v, got, want)
					}
				}
				bits := lc.bits
				lc.Release()
				requireCleared(t, bits)
			}
		}
	}
}

// TestLinkCounterPoolReuse cycles counters through the pool between a
// large and a small vertex count in both orders: a counter sized for
// 4 097 vertices must count correctly for one, a counter sized for one
// must grow, and every Release must leave the bitset all zero.
func TestLinkCounterPoolReuse(t *testing.T) {
	big := boundaryGraph(4097, 8000, false, 3)
	full := make([]graph.VertexID, 4097)
	for i := range full {
		full[i] = graph.VertexID(i)
	}
	cases := []struct {
		n          int
		nbrs, list []graph.VertexID
	}{
		{4097, big.Out(4096), big.Out(64)},
		{4097, full, full},
		{1, []graph.VertexID{0}, []graph.VertexID{0}},
		{1, nil, []graph.VertexID{0}},
		{65, []graph.VertexID{0, 63, 64}, []graph.VertexID{1, 63, 64}},
		{4097, []graph.VertexID{4096}, []graph.VertexID{0, 4096}},
		{64, []graph.VertexID{63}, []graph.VertexID{62, 63}},
	}
	for round := 0; round < 20; round++ {
		for i, c := range cases {
			if round%2 == 1 { // the reverse order
				c = cases[len(cases)-1-i]
			}
			lc := AcquireLinkCounter(c.n, c.nbrs)
			if got, want := lc.Links(c.list), mergeLinks(c.nbrs, c.list); got != want {
				t.Fatalf("round %d n=%d: Links = %d, merge = %d", round, c.n, got, want)
			}
			bits := lc.bits
			lc.Release()
			requireCleared(t, bits)
		}
	}
}

// TestLinkCounterConcurrent acquires counters from GOMAXPROCS
// goroutines at once, as the engines' workers do; run it under -race.
func TestLinkCounterConcurrent(t *testing.T) {
	g := boundaryGraph(4097, 20000, true, 5)
	n := g.NumVertices()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	var want int64
	for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
		nbrs := NeighborhoodOf(g.Out(v), g.In(v))
		for _, u := range nbrs {
			want += mergeLinks(nbrs, g.Out(u))
		}
	}
	got := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
				nbrs := NeighborhoodOf(g.Out(v), g.In(v))
				lc := AcquireLinkCounter(n, nbrs)
				for _, u := range nbrs {
					got[w] += lc.Links(g.Out(u))
				}
				lc.Release()
			}
		}(w)
	}
	wg.Wait()
	for w, links := range got {
		if links != want {
			t.Errorf("worker %d counted %d links, merge %d", w, links, want)
		}
	}
}

// TestLinkCounterAllocatesNothing pins the steady state: a warm
// acquire, count and release allocates nothing.
func TestLinkCounterAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	g := boundaryGraph(4097, 8000, false, 9)
	nbrs, list := g.Out(4096), g.Out(64)
	var links int64
	run := func() {
		lc := AcquireLinkCounter(g.NumVertices(), nbrs)
		links += lc.Links(list)
		lc.Release()
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("acquire/links/release allocates %.0f times a run, want 0", allocs)
	}
}

// TestChooseLabelMatchesMaps holds the run-scan ChooseLabel to the
// two-map rule, bit for bit, over random vote multisets in shuffled
// orders and the edge cases of the rule.
func TestChooseLabelMatchesMaps(t *testing.T) {
	const att = 0.1
	type choice struct {
		label graph.VertexID
		bits  uint64
		ok    bool
	}
	sets := [][]LabelMsg{
		{{4, 0.5}, {4, 0.5}, {2, 1.0}},           // equal sums across labels
		{{7, 0.6}, {3, 0.3}, {3, 0.3}, {7, 0.0}}, // equal sums, equal scores within a label
		{{5, 0.25}, {5, 0.25}, {5, 0.25}},        // one label only, equal scores
		{{9, 0.8}},                               // one vote
		{{1, att}, {2, att}, {1, att}},           // scores equal to the attenuation
		{{3, 0}, {1, 0}, {2, 0}},                 // zero scores
		{{8, 0}, {6, att}, {6, 0}, {8, att}},     // zero and attenuation mixed
		{},                                       // no votes
	}
	rng := NewRand(21)
	pick := []float64{0, att, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9, 1.0}
	for i := 0; i < 2000; i++ {
		votes := make([]LabelMsg, 1+rng.Intn(24))
		labels := 1 + rng.Intn(6)
		for j := range votes {
			votes[j].Label = graph.VertexID(rng.Intn(labels) * 61)
			if rng.Next() < 0.7 {
				votes[j].Score = pick[rng.Intn(len(pick))]
			} else {
				votes[j].Score = rng.Next()
			}
		}
		sets = append(sets, votes)
	}
	for si, set := range sets {
		var first choice
		for order := 0; order < 4; order++ {
			a := append([]LabelMsg(nil), set...)
			for i := len(a) - 1; i > 0; i-- { // Fisher–Yates
				j := rng.Intn(i + 1)
				a[i], a[j] = a[j], a[i]
			}
			b := append([]LabelMsg(nil), a...)
			l, s, ok := ChooseLabel(a, att)
			wl, ws, wok := chooseLabelMaps(b, att)
			got, want := choice{l, math.Float64bits(s), ok}, choice{wl, math.Float64bits(ws), wok}
			if got != want {
				t.Fatalf("set %d %v: ChooseLabel = (%d, %v, %v), maps = (%d, %v, %v)", si, set, l, s, ok, wl, ws, wok)
			}
			if order == 0 {
				first = got
			} else if got != first {
				t.Fatalf("set %d %v: result depends on vote order", si, set)
			}
		}
	}
}

func TestChooseLabelAllocatesNothing(t *testing.T) {
	votes := []LabelMsg{{5, 0.3}, {2, 0.9}, {5, 0.4}, {7, 1.0}, {2, 0.1}, {5, 0.3}}
	scratch := make([]LabelMsg, len(votes))
	if allocs := testing.AllocsPerRun(200, func() {
		copy(scratch, votes)
		ChooseLabel(scratch, 0.1)
	}); allocs != 0 {
		t.Fatalf("ChooseLabel allocates %.0f times a run, want 0", allocs)
	}
}

// kgs8 is the STATS/CD graph of the batch-graph benchmark's KGS cells.
func kgs8(b *testing.B) *graph.Graph {
	p, err := datagen.ByName("KGS")
	if err != nil {
		b.Fatal(err)
	}
	return p.GenerateScaled(8, 42)
}

// BenchmarkLinkCounter times one full STATS pass over KGS@8 — every
// vertex counts every neighbour's out-list against its neighbourhood —
// in the three forms: the sorted merge the counter replaced, the
// bitset marked once per vertex (Neo4j, Giraph, Hadoop/YARN,
// Stratosphere), and marked per gathered edge (GraphLab).
func BenchmarkLinkCounter(b *testing.B) {
	g := kgs8(b)
	n := g.NumVertices()
	nbrs := make([][]graph.VertexID, n)
	for v := range nbrs {
		var in []graph.VertexID
		if g.Directed() {
			in = g.In(graph.VertexID(v))
		}
		nbrs[v] = NeighborhoodOf(g.Out(graph.VertexID(v)), in)
	}
	var sink int64
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, nb := range nbrs {
				for _, u := range nb {
					sink += mergeLinks(nb, g.Out(u))
				}
			}
		}
	})
	b.Run("vertex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, nb := range nbrs {
				lc := AcquireLinkCounter(n, nb)
				for _, u := range nb {
					sink += lc.Links(g.Out(u))
				}
				lc.Release()
			}
		}
	})
	b.Run("edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, nb := range nbrs {
				for _, u := range nb {
					lc := AcquireLinkCounter(n, nb)
					sink += lc.Links(g.Out(u))
					lc.Release()
				}
			}
		}
	})
	if sink < 0 {
		b.Fatal("negative link count")
	}
}

// BenchmarkChooseLabel times one CD round's label choice over KGS@8:
// every vertex's votes from all its neighbours, with the labels of two
// RefCD rounds so that votes share labels as they do mid-run.
func BenchmarkChooseLabel(b *testing.B) {
	g := kgs8(b)
	p := DefaultParams(1)
	p.CDMaxIterations = 2
	labels := RefCD(g, p).Labels
	votes := make([][]LabelMsg, g.NumVertices())
	longest := 0
	for v := range votes {
		var in []graph.VertexID
		if g.Directed() {
			in = g.In(graph.VertexID(v))
		}
		for _, nbrs := range [2][]graph.VertexID{g.Out(graph.VertexID(v)), in} {
			for _, u := range nbrs {
				votes[v] = append(votes[v], LabelMsg{labels[u], 1 - 0.1*float64(u%3)})
			}
		}
		longest = max(longest, len(votes[v]))
	}
	scratch := make([]LabelMsg, longest)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vs := range votes {
			s := scratch[:len(vs)]
			copy(s, vs)
			ChooseLabel(s, p.CDHopAttenuation)
		}
	}
}

// BenchmarkRefCD times the CD reference on the batch workloads' set-up
// graphs (seed 42): KGS@16 and WikiTalk@2 are batch-generic's, KGS@8
// and Amazon@2 batch-graph's. Its rows at -cpu 1 and 2 are the RefCD
// table of DESIGN.md §9.
func BenchmarkRefCD(b *testing.B) {
	p := DefaultParams(42)
	for _, d := range []struct {
		name  string
		scale int
	}{{"KGS", 16}, {"KGS", 8}, {"Amazon", 2}, {"WikiTalk", 2}} {
		g := profileGraph(b, d.name, d.scale)
		b.Run(d.name+"@"+itoa(d.scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RefCD(g, p)
			}
		})
	}
}
