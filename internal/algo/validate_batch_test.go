package algo

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// certGraph is gapGraph plus a tail of eight disjoint triangles, so a
// batch can hold sources whose BFS reaches three vertices and leaves
// the rest at -1.
func certGraph(t testing.TB, n, e int, directed bool, seed int64) *graph.Graph {
	t.Helper()
	const tail = 24
	rng := NewRand(seed)
	b := graph.NewBuilder(n, directed)
	body := n - tail
	for i := 0; i < e; i++ {
		u, v := rng.Intn(body), rng.Intn(body)
		if i%2 == 0 {
			u, v = rng.Intn(body/4+1), rng.Intn(body/4+1)
		}
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	for base := body; base < n; base += 3 {
		for i := 0; i < 3; i++ {
			b.AddEdge(graph.VertexID(base+i), graph.VertexID(base+(i+1)%3))
		}
	}
	return b.Build()
}

// certSources spreads lanes sources over the body, then overwrites a
// few lanes with a duplicate of lane 0 and with triangle-tail vertices.
func certSources(g *graph.Graph, lanes int, seed int64) []graph.VertexID {
	srcs := multiSources(g, lanes, seed)
	n := g.NumVertices()
	if lanes >= 2 {
		srcs[lanes-1] = graph.VertexID(n - 1)
	}
	if lanes >= 8 {
		srcs[3] = srcs[0]
		srcs[5] = graph.VertexID(n - 7)
		srcs[6] = graph.VertexID(n - 7)
	}
	return srcs
}

// sweepResults runs the batch kernel and returns private copies of the
// per-lane results, so a test may corrupt them.
func sweepResults(t testing.TB, g *graph.Graph, srcs []graph.VertexID) []*BFSResult {
	t.Helper()
	trees, err := BFSMultiSource(context.Background(), g, srcs, GapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*BFSResult, len(trees))
	for l, tr := range trees {
		r := tr.BFSResult
		r.Levels = append([]int32(nil), r.Levels...)
		out[l] = &r
	}
	return out
}

// Corruption kinds of the differential matrix.
const (
	corruptLevelUp = iota
	corruptLevelDown
	corruptLevelUnreached
	corruptLevelArbitrary
	corruptLevelBeyondV
	corruptLevelZero
	corruptVisitedUp
	corruptVisitedDown
	corruptIterationsUp
	corruptIterationsDown
	corruptShorter
	corruptLonger
	corruptKinds
)

// corruptBFS damages r in place: kind selects the rule attacked, v the
// vertex and x the replacement level where the kind takes one.
func corruptBFS(r *BFSResult, kind, v int, x int32) {
	n := len(r.Levels)
	switch kind {
	case corruptLevelUp:
		r.Levels[v]++
	case corruptLevelDown:
		r.Levels[v]--
	case corruptLevelUnreached:
		r.Levels[v] = -1
	case corruptLevelArbitrary:
		r.Levels[v] = x
	case corruptLevelBeyondV:
		r.Levels[v] = int32(n) + (x & 0xffff)
	case corruptLevelZero:
		r.Levels[v] = 0
	case corruptVisitedUp:
		r.Visited++
	case corruptVisitedDown:
		r.Visited--
	case corruptIterationsUp:
		r.Iterations++
	case corruptIterationsDown:
		r.Iterations--
	case corruptShorter:
		r.Levels = r.Levels[:n-1]
	case corruptLonger:
		r.Levels = append(r.Levels, -1)
	}
}

// requireSameVerdicts is the oracle: the batch certificate accepts a
// lane exactly when ValidateBFS does. It returns how many lanes failed.
func requireSameVerdicts(t *testing.T, label string, c *BFSBatchValidator, g *graph.Graph, srcs []graph.VertexID, results []*BFSResult) int {
	t.Helper()
	errs := c.Validate(g, srcs, results)
	if len(errs) != len(srcs) {
		t.Fatalf("%s: %d verdicts for %d lanes", label, len(errs), len(srcs))
	}
	failed := 0
	for l := range srcs {
		want := ValidateBFS(g, srcs[l], results[l])
		if (errs[l] == nil) != (want == nil) {
			t.Fatalf("%s: lane %d (source %d): batch says %v, ValidateBFS says %v", label, l, srcs[l], errs[l], want)
		}
		if want != nil {
			failed++
		}
	}
	return failed
}

// TestValidateBFSBatchDifferential runs the corruption matrix: every
// kind, on directed and undirected graphs, at the lane counts around
// the word boundary, with duplicate sources and sources in three-vertex
// components in the batch. One validator serves every case, so stale
// planes from a wider or deeper batch are part of what is tested.
func TestValidateBFSBatchDifferential(t *testing.T) {
	var c BFSBatchValidator
	for _, directed := range []bool{false, true} {
		g := certGraph(t, 900, 5000, directed, 23)
		n := g.NumVertices()
		for _, lanes := range []int{1, 2, 63, 64} {
			srcs := certSources(g, lanes, 23)
			clean := sweepResults(t, g, srcs)
			label := formatLane(directed, 1, lanes, 0)
			if failed := requireSameVerdicts(t, label+"/clean", &c, g, srcs, clean); failed != 0 {
				t.Fatalf("%s: %d clean lanes rejected", label, failed)
			}
			depth := 0
			for _, r := range clean {
				depth = max(depth, r.Iterations+1)
			}
			if got, limit := 8*cap(c.planes), 16*min(depth, MaxBFSLanes)*n; got > limit {
				t.Fatalf("%s: %d scratch bytes exceed 16*depth*V = %d", label, got, limit)
			}

			rng := NewRand(23, int64(lanes))
			rejected := 0
			for kind := 0; kind < corruptKinds; kind++ {
				for trial := 0; trial < 6; trial++ {
					results := sweepResults(t, g, srcs)
					// One lane takes this kind; every other trial a
					// second lane takes a random one.
					hit := []int{kind}
					if trial%2 == 1 {
						hit = append(hit, rng.Intn(corruptKinds))
					}
					for _, k := range hit {
						l := rng.Intn(lanes)
						v := rng.Intn(n)
						if k == corruptLevelZero && graph.VertexID(v) == srcs[l] {
							v = (v + 1) % n
						}
						corruptBFS(results[l], k, v, int32(rng.Intn(2*n))-int32(n/2))
					}
					rejected += requireSameVerdicts(t, label+"/kind="+itoa(kind), &c, g, srcs, results)
				}
			}
			if rejected == 0 {
				t.Fatalf("%s: the corruption matrix rejected no lane", label)
			}
		}
	}
}

// TestValidateBFSBatchRejectsBeforeSizing: lanes the per-lane oracle
// cannot even index — nil result, source out of range, results and
// sources of different lengths — and a level far beyond V fail on
// their own, with no plane ever sized from them.
func TestValidateBFSBatchRejectsBeforeSizing(t *testing.T) {
	g := certGraph(t, 300, 1500, false, 5)
	srcs := certSources(g, 4, 5)

	for _, errs := range [][]error{
		ValidateBFSBatch(g, srcs, sweepResults(t, g, srcs)[:3]),
		ValidateBFSBatch(g, srcs[:3], sweepResults(t, g, srcs)),
	} {
		for l, err := range errs {
			if err == nil {
				t.Fatalf("lane %d accepted with mismatched sources and results", l)
			}
		}
	}

	results := sweepResults(t, g, srcs)
	results[1] = nil
	bad := append([]graph.VertexID(nil), srcs...)
	bad[2] = graph.VertexID(g.NumVertices())
	errs := ValidateBFSBatch(g, bad, results)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("sound lanes rejected beside broken ones: %v, %v", errs[0], errs[3])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatal("nil result or out-of-range source accepted")
	}

	var c BFSBatchValidator
	deep := sweepResults(t, g, srcs[:1])
	deep[0].Levels[7] = 1 << 30
	deep[0].Iterations = 1 << 30
	if errs := c.Validate(g, srcs[:1], deep); errs[0] == nil {
		t.Fatal("level 2^30 accepted")
	}
	if cap(c.planes) != 0 {
		t.Fatalf("a rejected level sized %d plane words", cap(c.planes))
	}
}

// TestValidateBFSBatchDepthFallback: on a path graph the BFS is deeper
// than MaxBFSLanes, the batch takes the per-lane loop — no planes — and
// the verdicts still match lane for lane.
func TestValidateBFSBatchDepthFallback(t *testing.T) {
	const n = 200
	b := graph.NewBuilder(n, false)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	g := b.Build()
	srcs := []graph.VertexID{0, n / 2, n - 1}
	results := sweepResults(t, g, srcs)
	corruptBFS(results[1], corruptLevelUp, 3, 0)

	var c BFSBatchValidator
	if failed := requireSameVerdicts(t, "path", &c, g, srcs, results); failed != 1 {
		t.Fatalf("path graph: %d lanes rejected, want 1", failed)
	}
	if cap(c.planes) != 0 {
		t.Fatalf("depth %d batch sized %d plane words instead of falling back", results[0].Iterations+1, cap(c.planes))
	}
}

// FuzzValidateBFSBatch holds the differential property over arbitrary
// graphs, lane counts and single-lane corruptions.
func FuzzValidateBFSBatch(f *testing.F) {
	f.Add(int64(1), uint16(60), uint16(240), true, uint8(63), uint8(corruptLevelUp), uint8(9), uint16(17), int32(3))
	f.Add(int64(2), uint16(1), uint16(0), false, uint8(0), uint8(corruptShorter), uint8(0), uint16(0), int32(0))
	f.Add(int64(3), uint16(300), uint16(310), false, uint8(7), uint8(corruptLevelArbitrary), uint8(2), uint16(299), int32(-7))
	f.Add(int64(4), uint16(150), uint16(2000), true, uint8(1), uint8(corruptLevelBeyondV), uint8(1), uint16(3), int32(1<<20))
	f.Add(int64(5), uint16(90), uint16(89), false, uint8(20), uint8(corruptLevelZero), uint8(4), uint16(50), int32(0))
	f.Add(int64(6), uint16(40), uint16(400), true, uint8(40), uint8(corruptKinds), uint8(0), uint16(0), int32(0))

	f.Fuzz(func(t *testing.T, seed int64, rawN, rawE uint16, directed bool, rawLanes, rawKind, rawLane uint8, rawV uint16, x int32) {
		n := int(rawN)%400 + 1
		lanes := int(rawLanes)%MaxBFSLanes + 1
		rng := NewRand(seed)
		b := graph.NewBuilder(n, directed)
		// Odd seeds chain the vertices first: deep BFS trees, and past
		// 64 levels the fallback.
		if seed%2 != 0 {
			for v := 0; v+1 < n; v++ {
				b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
			}
		}
		for i := 0; i < int(rawE)%3000; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
		g := b.Build()
		srcs := make([]graph.VertexID, lanes)
		for l := range srcs {
			srcs[l] = graph.VertexID(rng.Intn(n))
		}
		results := sweepResults(t, g, srcs)
		// rawKind == corruptKinds leaves the batch clean.
		corruptBFS(results[int(rawLane)%lanes], int(rawKind)%(corruptKinds+1), int(rawV)%n, x)

		var c BFSBatchValidator
		requireSameVerdicts(t, "fuzz", &c, g, srcs, results)
	})
}

// TestValidateBFSBatchScratchReuse pins the serving dispatcher's
// steady state: a warm validator certifies a full batch without
// allocating anything but the verdict slice.
func TestValidateBFSBatchScratchReuse(t *testing.T) {
	g := certGraph(t, 900, 5000, false, 31)
	srcs := certSources(g, MaxBFSLanes, 31)
	results := sweepResults(t, g, srcs)
	var c BFSBatchValidator
	c.Validate(g, srcs, results)
	if allocs := testing.AllocsPerRun(10, func() { c.Validate(g, srcs, results) }); allocs > 1 {
		t.Fatalf("warm 64-lane certificate allocates %.0f times a run, want 1 (the verdicts)", allocs)
	}
}

// profileGraph generates a dataset profile scaled down by scale, seed
// 42 — the seed the serving daemon uses.
func profileGraph(t testing.TB, name string, scale int) *graph.Graph {
	t.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.GenerateScaled(scale, 42)
}

// TestRefBFSTreeMatchesSweep pins every sweep lane to the sequential
// oracle on generated datasets, where gapGraph's dense core reaches
// neither a deep tree nor a low-reach one: Amazon@4 is directed and 67
// levels deep (so its batches also take the certificate's per-lane
// fallback), Citation@4 is directed and its PickSource source reaches
// 20 of 9 410 vertices, and DotaLeague@8 is the dense graph the daemon
// serves.
func TestRefBFSTreeMatchesSweep(t *testing.T) {
	for _, d := range []struct {
		name  string
		scale int
		deep  bool // deeper than MaxBFSLanes levels
	}{{"Amazon", 4, true}, {"Citation", 4, false}, {"DotaLeague", 8, false}} {
		g := profileGraph(t, d.name, d.scale)
		refs := make(map[graph.VertexID]*BFSTree)
		for _, lanes := range []int{1, MaxBFSLanes} {
			srcs := multiSources(g, lanes, 42)
			for _, workers := range []int{1, 2} {
				trees, err := BFSMultiSource(context.Background(), g, srcs, GapOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				results := make([]*BFSResult, lanes)
				depth := 0
				for l, src := range srcs {
					if refs[src] == nil {
						refs[src] = RefBFSTree(g, src)
					}
					label := d.name + "/lanes=" + itoa(lanes) + "/workers=" + itoa(workers) + "/lane=" + itoa(l)
					treesEqual(t, label, trees[l], refs[src])
					results[l] = &trees[l].BFSResult
					depth = max(depth, trees[l].Iterations+1)
				}
				for l, err := range ValidateBFSBatch(g, srcs, results) {
					if err != nil {
						t.Fatalf("%s/lanes=%d/workers=%d: certificate rejects lane %d: %v", d.name, lanes, workers, l, err)
					}
				}
				if (depth > MaxBFSLanes) != d.deep {
					t.Fatalf("%s/lanes=%d: depth %d, want deep=%v", d.name, lanes, depth, d.deep)
				}
			}
		}
	}
}

// BenchmarkBFS times the multi-source sweep at one lane (BFSDirOpt, a
// lone cold query) and at a full batch (a closed-loop batch before its
// certificate). The datasets span density and diameter: dense
// DotaLeague and KGS, Kronecker Synth, 67-level Amazon, low-reach
// Citation, sparse WikiTalk and Friendster. Its rows at -cpu 1 and 2
// are the direction-policy table of DESIGN.md §14.
func BenchmarkBFS(b *testing.B) {
	for _, d := range []struct {
		name  string
		scale int
	}{
		{"DotaLeague", 8}, {"KGS", 8}, {"KGS", 1}, {"Synth", 1},
		{"Amazon", 4}, {"WikiTalk", 4}, {"Citation", 4}, {"Friendster", 8},
	} {
		g := profileGraph(b, d.name, d.scale)
		for _, lanes := range []int{1, MaxBFSLanes} {
			srcs := multiSources(g, lanes, 42)
			b.Run(d.name+"@"+itoa(d.scale)+"/l"+itoa(lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BFSMultiSource(context.Background(), g, srcs, GapOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkValidateBFSBatch times the warm certificate of one finished
// sweep on DotaLeague@8, the graph the serving daemon holds, for a lone lane and a full batch — what a lone
// cold query and a full closed-loop batch wait for after their sweep.
// The certificate is single-threaded, so -cpu does not move it; a
// parallel one has to (ROADMAP item 4).
func BenchmarkValidateBFSBatch(b *testing.B) {
	g := profileGraph(b, "DotaLeague", 8)
	for _, lanes := range []int{1, MaxBFSLanes} {
		srcs := multiSources(g, lanes, 42)
		results := sweepResults(b, g, srcs)
		b.Run("l"+itoa(lanes), func(b *testing.B) {
			var c BFSBatchValidator
			c.Validate(g, srcs, results)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l, err := range c.Validate(g, srcs, results) {
					if err != nil {
						b.Fatalf("lane %d: %v", l, err)
					}
				}
			}
		})
	}
}
