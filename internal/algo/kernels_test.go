package algo

import (
	"math"
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
func chooseLabelMaps(votes []LabelScore, attenuation float64) (label graph.VertexID, score float64, ok bool) {
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
				rec := &VertexRec{Out: g.Out(v)}
				if directed {
					rec.In = g.In(v)
				}
				nbrs := NeighborhoodOf(rec)
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
		nbrs := NeighborhoodOf(&VertexRec{Out: g.Out(v), In: g.In(v)})
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
				nbrs := NeighborhoodOf(&VertexRec{Out: g.Out(v), In: g.In(v)})
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
	sets := [][]LabelScore{
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
		votes := make([]LabelScore, 1+rng.Intn(24))
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
			a := append([]LabelScore(nil), set...)
			for i := len(a) - 1; i > 0; i-- { // Fisher–Yates
				j := rng.Intn(i + 1)
				a[i], a[j] = a[j], a[i]
			}
			b := append([]LabelScore(nil), a...)
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
	votes := []LabelScore{{5, 0.3}, {2, 0.9}, {5, 0.4}, {7, 1.0}, {2, 0.1}, {5, 0.3}}
	scratch := make([]LabelScore, len(votes))
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
		rec := &VertexRec{Out: g.Out(graph.VertexID(v))}
		if g.Directed() {
			rec.In = g.In(graph.VertexID(v))
		}
		nbrs[v] = NeighborhoodOf(rec)
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
	votes := make([][]LabelScore, g.NumVertices())
	longest := 0
	for v := range votes {
		for _, u := range neighborsBoth(g, graph.VertexID(v)) {
			votes[v] = append(votes[v], LabelScore{labels[u], 1 - 0.1*float64(u%3)})
		}
		longest = max(longest, len(votes[v]))
	}
	scratch := make([]LabelScore, longest)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vs := range votes {
			s := scratch[:len(vs)]
			copy(s, vs)
			ChooseLabel(s, p.CDHopAttenuation)
		}
	}
}
