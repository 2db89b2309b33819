package datagen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/graph"
)

// generated caches the full-scale datasets; generating the ~9M total
// edges once keeps the test binary fast.
var generated = func() map[string]*graph.Graph {
	m := make(map[string]*graph.Graph)
	for _, p := range Profiles() {
		m[p.Name] = p.GenerateScaled(1, 42)
	}
	return m
}()

func TestProfilesCount(t *testing.T) {
	if got := len(Profiles()); got != 7 {
		t.Fatalf("Profiles() returned %d datasets, want 7 (Table 2)", got)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("DotaLeague")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "DotaLeague" || p.Directed {
		t.Fatalf("unexpected profile %+v", p)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"Amazon", "WikiTalk", "KGS", "Citation", "DotaLeague", "Synth", "Friendster"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (Table 2 order)", i, got[i], want[i])
		}
	}
}

func TestDirectivityMatchesTable2(t *testing.T) {
	wantDirected := map[string]bool{
		"Amazon": true, "WikiTalk": true, "KGS": false, "Citation": true,
		"DotaLeague": false, "Synth": false, "Friendster": false,
	}
	for _, p := range Profiles() {
		g := generated[p.Name]
		if g.Directed() != wantDirected[p.Name] {
			t.Errorf("%s: directed = %v, want %v", p.Name, g.Directed(), wantDirected[p.Name])
		}
		if p.Directed != wantDirected[p.Name] {
			t.Errorf("%s profile directivity mismatch", p.Name)
		}
	}
}

func TestGeneratedSizesNearTargets(t *testing.T) {
	for _, p := range Profiles() {
		g := generated[p.Name]
		v, e := float64(g.NumVertices()), float64(g.NumEdges())
		tv, te := float64(p.TargetV()), float64(p.TargetE())
		if v < 0.75*tv || v > 1.05*tv {
			t.Errorf("%s: V = %.0f, target %.0f (out of 75%%..105%%)", p.Name, v, tv)
		}
		if e < 0.75*te || e > 1.15*te {
			t.Errorf("%s: E = %.0f, target %.0f (out of 75%%..115%%)", p.Name, e, te)
		}
	}
}

func TestGeneratedDegreesNearPaper(t *testing.T) {
	for _, p := range Profiles() {
		g := generated[p.Name]
		// The scaled graph must preserve the paper's average degree
		// class. DotaLeague deliberately scales V less than E (to keep
		// density and diameter), so its degree target is scaled.
		want := p.PaperAvgDegree
		if p.VDivisor != p.EDivisor {
			want = want * float64(p.VDivisor) / float64(p.EDivisor)
		}
		got := g.AvgDegree()
		if got < 0.7*want || got > 1.35*want {
			t.Errorf("%s: avg degree %.1f, want ≈ %.1f", p.Name, got, want)
		}
	}
}

func TestGeneratedConnected(t *testing.T) {
	// Largest-component extraction means everything is (weakly)
	// connected, per the paper's footnote.
	for _, p := range Profiles() {
		g := generated[p.Name]
		if got := len(g.LargestComponent()); got != g.NumVertices() {
			t.Errorf("%s: largest component %d of %d vertices", p.Name, got, g.NumVertices())
		}
	}
}

func TestBFSDepthClassMatchesTable5(t *testing.T) {
	// Table 5 of the paper: iteration counts per dataset. The
	// generators must land in the same depth class. Bounds are loose:
	// shapes, not absolute equality, drive the platform comparison.
	bounds := map[string][2]int{
		"Amazon":     {50, 90},
		"WikiTalk":   {4, 12},
		"KGS":        {5, 14},
		"Citation":   {7, 18},
		"DotaLeague": {3, 9},
		"Synth":      {3, 12},
		"Friendster": {16, 30},
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range Profiles() {
		g := generated[p.Name]
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		r := algo.RefBFS(g, src)
		b := bounds[p.Name]
		if r.Iterations < b[0] || r.Iterations > b[1] {
			t.Errorf("%s: BFS iterations = %d, want in [%d,%d] (paper: %d)",
				p.Name, r.Iterations, b[0], b[1], p.PaperBFSIterations)
		}
		// Coverage class: Citation tiny, everything else near-complete.
		cov := 100 * float64(r.Visited) / float64(len(r.Levels))
		if p.Name == "Citation" {
			if cov > 2.0 {
				t.Errorf("Citation: coverage %.2f%%, want < 2%% (paper: 0.1%%)", cov)
			}
		} else if cov < 90 {
			t.Errorf("%s: coverage %.1f%%, want > 90%%", p.Name, cov)
		}
	}
}

func TestDotaLeaguePreservesDensity(t *testing.T) {
	p, _ := ByName("DotaLeague")
	g := generated[p.Name]
	d := g.LinkDensity() * 1e5
	if d < 0.8*p.PaperDensity || d > 1.2*p.PaperDensity {
		t.Errorf("DotaLeague density = %.0fe-5, want ≈ %.0fe-5", d, p.PaperDensity)
	}
}

// TestProjection: the paper-scale factors are the divisors times the
// extra scale, V and E apart where the divisors differ, and an
// undivided profile or a factor below 1 projects by 1.
func TestProjection(t *testing.T) {
	p, _ := ByName("DotaLeague")
	for _, c := range []struct {
		prof         Profile
		extra        int
		wantV, wantE int64
	}{
		{p, 0, 5, 25},
		{p, 1, 5, 25},
		{p, 40, 200, 1000},
		{Profile{}, 3, 3, 3},
	} {
		if v, e := c.prof.Projection(c.extra); v != c.wantV || e != c.wantE {
			t.Errorf("%q.Projection(%d) = %d, %d; want %d, %d", c.prof.Name, c.extra, v, e, c.wantV, c.wantE)
		}
	}
}

func TestWikiTalkSkew(t *testing.T) {
	// WikiTalk must have an extreme degree skew: max degree hundreds of
	// times the average.
	g := generated["WikiTalk"]
	if ratio := float64(g.MaxDegree()) / g.AvgDegree(); ratio < 100 {
		t.Errorf("WikiTalk degree skew max/avg = %.0f, want >= 100", ratio)
	}
}

func TestKroneckerPowerOfTwoRaw(t *testing.T) {
	// The Graph500 generator emits 2^scale vertices before largest-
	// component extraction; the extracted graph must be close below.
	g := generated["Synth"]
	if g.NumVertices() > 65536 {
		t.Errorf("Synth V = %d, want <= 65536", g.NumVertices())
	}
	if g.NumVertices() < 40000 {
		t.Errorf("Synth V = %d: largest component suspiciously small", g.NumVertices())
	}
}

func TestDeterminism(t *testing.T) {
	sameAdj := func(a, b *graph.Graph) bool {
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			return false
		}
		for v := graph.VertexID(0); v < graph.VertexID(a.NumVertices()); v++ {
			ao, bo := a.Out(v), b.Out(v)
			if len(ao) != len(bo) {
				return false
			}
			for i := range ao {
				if ao[i] != bo[i] {
					return false
				}
			}
		}
		return true
	}
	for _, p := range Profiles() {
		a := p.GenerateScaled(20, 7)
		b := p.GenerateScaled(20, 7)
		if !sameAdj(a, b) {
			t.Errorf("%s: same seed produced different graphs", p.Name)
		}
		c := p.GenerateScaled(20, 8)
		if sameAdj(a, c) {
			t.Errorf("%s: different seeds produced identical graphs", p.Name)
		}
	}
}

func TestGenerateScaledSmall(t *testing.T) {
	// Aggressive extra scaling must still produce a usable connected
	// graph (used throughout the engine tests).
	for _, p := range Profiles() {
		g := p.GenerateScaled(50, 3)
		if g.NumVertices() < 10 {
			t.Errorf("%s tiny-scale: V = %d", p.Name, g.NumVertices())
		}
		if got := len(g.LargestComponent()); got != g.NumVertices() {
			t.Errorf("%s tiny-scale: not connected", p.Name)
		}
	}
}

func TestGenerateScaledPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateScaled(0) should panic")
		}
	}()
	p, _ := ByName("Amazon")
	p.GenerateScaled(0, 1)
}

func TestQuickScaledGraphsAreSane(t *testing.T) {
	profiles := Profiles()
	f := func(seed int64, pi uint8, rawFactor uint8) bool {
		p := profiles[int(pi)%len(profiles)]
		factor := 40 + int(rawFactor)%80
		g := p.GenerateScaled(factor, seed)
		if g.NumVertices() < 1 {
			return false
		}
		if g.Directed() != p.Directed {
			return false
		}
		// Connected after extraction.
		return len(g.LargestComponent()) == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
