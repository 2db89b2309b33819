package platform

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
)

// testScale shrinks datasets for test speed; the paper-scale
// projection (dataset divisor x this factor) keeps memory and timeout
// semantics at paper scale, so the crash matrix still reproduces.
const testScale = 8

var (
	graphOnce sync.Once
	graphs    map[string]*graph.Graph
)

func testGraph(t testing.TB, name string) *graph.Graph {
	t.Helper()
	graphOnce.Do(func() {
		graphs = make(map[string]*graph.Graph)
		for _, p := range datagen.Profiles() {
			graphs[p.Name] = p.GenerateScaled(testScale, 42)
		}
	})
	return graphs[name]
}

func runOne(t testing.TB, platformName, alg, dataset string, hw cluster.Hardware) *Result {
	t.Helper()
	p, err := ByName(platformName)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := datagen.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, dataset)
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	return p.Run(Spec{
		Algorithm: alg, Dataset: prof, G: g, HW: hw,
		Params: params, WarmCache: true, ScaleFactor: testScale,
	})
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Crashed.String() != "crash" ||
		Timeout.String() != "timeout" || NotSupported.String() != "n/a" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status should print")
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("All() = %d", len(All()))
	}
	if len(Algorithms()) != 6 {
		t.Fatalf("Algorithms() = %d, want 6 (Section 2.2.2 + SSSP)", len(Algorithms()))
	}
	for _, name := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "GraphLab(mp)", "Neo4j"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
		if p.Version() == "" || p.Kind() == "" {
			t.Fatalf("%s: empty metadata", name)
		}
	}
	if _, err := ByName("Spark"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

// TestSignatures: every platform carries a Section 4.2 resource
// signature, and the multi-part loader leaves GraphLab's unchanged.
func TestSignatures(t *testing.T) {
	for _, p := range rows {
		if s := SignatureOf(p); s.ComputeCPU <= 0 || s.PeakMemGB <= s.BaseMemGB {
			t.Errorf("%s: signature %+v", p.name, s)
		}
	}
	gl, _ := ByName("GraphLab")
	mp, _ := ByName("GraphLab(mp)")
	if SignatureOf(mp) != SignatureOf(gl) {
		t.Fatalf("GraphLab(mp) signature %+v, GraphLab's %+v", SignatureOf(mp), SignatureOf(gl))
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	for _, name := range pinnedPlatforms {
		r := runOne(t, name, "PageRank", "Amazon", cluster.DAS4(4, 1))
		if r.Status != Crashed || r.Err == nil {
			t.Fatalf("%s: unknown algorithm gave %v", name, r.Status)
		}
	}
}

// TestStatusRules pins where each platform decides a run's status:
// before the run (YARN's container memory at submit, Giraph's graph
// partition before placement), at placement, or after the run
// (Hadoop's and GraphLab's memory demand). A crash decided after the
// run keeps the profile it recorded; one decided before keeps none.
func TestStatusRules(t *testing.T) {
	tight := cluster.DAS4(4, 1)
	tight.MemPerNode = 64 << 20
	const (
		afterRun  = "after the run"
		atSubmit  = "cluster out of container memory"
		graphOnly = "graph partition alone exceeds node memory"
		placement = `unknown strategy "metis"`
	)
	cases := []struct {
		hw          cluster.Hardware
		partitioner string
		want        map[string]string // platform -> where it crashes, "" for ok
	}{
		{tight, "", map[string]string{
			"Hadoop": afterRun, "YARN": atSubmit, "Stratosphere": "",
			"Giraph": graphOnly, "GraphLab": afterRun, "GraphLab(mp)": afterRun, "Neo4j": "",
		}},
		{cluster.DAS4(4, 1), "metis", map[string]string{
			"Hadoop": placement, "YARN": placement, "Stratosphere": placement,
			"Giraph": placement, "GraphLab": placement, "GraphLab(mp)": placement, "Neo4j": "",
		}},
		// Each gate fires before placement, so the bad partitioner
		// never gets asked.
		{tight, "metis", map[string]string{"YARN": atSubmit, "Giraph": graphOnly}},
	}
	g := testGraph(t, "Amazon")
	prof, _ := datagen.ByName("Amazon")
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	for _, c := range cases {
		for name, where := range c.want {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := p.Run(Spec{
				Algorithm: BFS, Dataset: prof, G: g, HW: c.hw, Params: params,
				WarmCache: true, ScaleFactor: testScale, Partitioner: c.partitioner,
			})
			label := fmt.Sprintf("%s mem=%dMB partitioner=%q", name, c.hw.MemPerNode>>20, c.partitioner)
			if where == "" {
				if r.Status != OK {
					t.Errorf("%s: %v (%v), want ok", label, r.Status, r.Err)
				}
				continue
			}
			if r.Status != Crashed || r.Err == nil || r.Seconds != 0 {
				t.Errorf("%s: %v after %v s (%v), want a crash", label, r.Status, r.Seconds, r.Err)
				continue
			}
			phases := len(r.Profile.Phases)
			switch where {
			case afterRun:
				if !errors.Is(r.Err, cluster.ErrOutOfMemory) || phases == 0 {
					t.Errorf("%s: %v with %d phases, want out of memory after the run", label, r.Err, phases)
				}
			case graphOnly:
				if !errors.Is(r.Err, cluster.ErrOutOfMemory) {
					t.Errorf("%s: %v is not out of memory", label, r.Err)
				}
				fallthrough
			default:
				if !strings.Contains(r.Err.Error(), where) || phases != 0 {
					t.Errorf("%s: %v with %d phases, want %q before the run", label, r.Err, phases, where)
				}
			}
		}
	}
}

func TestAllPlatformsAgreeOnBFS(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	g := testGraph(t, "Amazon")
	src := algo.PickSource(g, 42)
	want := algo.RefBFS(g, src)
	for _, name := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "Neo4j"} {
		r := runOne(t, name, BFS, "Amazon", hw)
		if r.Status != OK {
			t.Fatalf("%s: %v (%v)", name, r.Status, r.Err)
		}
		out := r.Output.(algo.BFSResult)
		if out.Visited != want.Visited || out.Iterations != want.Iterations {
			t.Fatalf("%s: BFS %d/%d, want %d/%d", name,
				out.Visited, out.Iterations, want.Visited, want.Iterations)
		}
		if r.ComputeSeconds+r.OverheadSeconds != r.Seconds {
			t.Fatalf("%s: Tc %v + To %v != T %v", name, r.ComputeSeconds, r.OverheadSeconds, r.Seconds)
		}
	}
}

func TestHadoopWorstGiraphGraphLabBest(t *testing.T) {
	// The paper's headline ordering for BFS, checked on two datasets.
	hw := cluster.DAS4(20, 1)
	for _, ds := range []string{"Amazon", "KGS"} {
		hadoop := runOne(t, "Hadoop", BFS, ds, hw)
		yarn := runOne(t, "YARN", BFS, ds, hw)
		strato := runOne(t, "Stratosphere", BFS, ds, hw)
		giraph := runOne(t, "Giraph", BFS, ds, hw)
		if hadoop.Status != OK || yarn.Status != OK || strato.Status != OK || giraph.Status != OK {
			t.Fatalf("%s: unexpected failures", ds)
		}
		if !(hadoop.Seconds > yarn.Seconds && yarn.Seconds > strato.Seconds && strato.Seconds > giraph.Seconds) {
			t.Fatalf("%s ordering: hadoop=%.0f yarn=%.0f strato=%.0f giraph=%.0f",
				ds, hadoop.Seconds, yarn.Seconds, strato.Seconds, giraph.Seconds)
		}
	}
}

func TestAmazonIterationPenalty(t *testing.T) {
	// Amazon is the smallest graph but its 68-iteration BFS makes it
	// one of Hadoop's slowest runs — while Giraph barely notices.
	hw := cluster.DAS4(20, 1)
	amazonH := runOne(t, "Hadoop", BFS, "Amazon", hw)
	kgsH := runOne(t, "Hadoop", BFS, "KGS", hw)
	if amazonH.Seconds < 3*kgsH.Seconds {
		t.Fatalf("Hadoop: Amazon %.0fs should dwarf KGS %.0fs (iteration count)",
			amazonH.Seconds, kgsH.Seconds)
	}
	amazonG := runOne(t, "Giraph", BFS, "Amazon", hw)
	if amazonG.Seconds > amazonH.Seconds/5 {
		t.Fatalf("Giraph Amazon %.0fs should be far below Hadoop %.0fs",
			amazonG.Seconds, amazonH.Seconds)
	}
}

func TestCrashMatrixRobust(t *testing.T) {
	// The scale-insensitive part of the paper's failure matrix
	// (Sections 4.1.2-4.1.3): outcomes with wide margins that
	// reproduce even on the reduced test graphs.
	hw := cluster.DAS4(20, 1)
	cases := []struct {
		platform, alg, dataset string
		want                   Status
	}{
		// "Giraph crashes for the STATS algorithm running on the
		// WikiTalk dataset"
		{"Giraph", STATS, "WikiTalk", Crashed},
		// "for Friendster, ... Giraph completes only the EVO algorithm"
		{"Giraph", CONN, "Friendster", Crashed},
		{"Giraph", CD, "Friendster", Crashed},
		{"Giraph", STATS, "Friendster", Crashed},
		{"Giraph", EVO, "Friendster", OK},
		{"YARN", STATS, "DotaLeague", Crashed},
		// "STATS ... more than 20 hours in Neo4j"
		{"Neo4j", STATS, "DotaLeague", Timeout},
		// Giraph handles STATS on KGS and Citation (Figure 3).
		{"Giraph", STATS, "KGS", OK},
		{"Giraph", STATS, "Citation", OK},
		{"Giraph", STATS, "Amazon", OK},
		// GraphLab processes even the largest graph.
		{"GraphLab", BFS, "Friendster", OK},
		{"GraphLab", CONN, "Friendster", OK},
		// Hadoop completes Friendster BFS (Figure 11).
		{"Hadoop", BFS, "Friendster", OK},
		// Neo4j cannot ingest Friendster at all (Table 6: N/A).
		{"Neo4j", BFS, "Friendster", NotSupported},
		// The paper's Figure 4 baseline rows all complete.
		{"Hadoop", BFS, "DotaLeague", OK},
		{"YARN", CONN, "DotaLeague", OK},
		{"Stratosphere", CD, "DotaLeague", OK},
		{"Giraph", EVO, "DotaLeague", OK},
		{"GraphLab", STATS, "DotaLeague", OK},
		{"Neo4j", BFS, "DotaLeague", OK},
	}
	for _, c := range cases {
		r := runOne(t, c.platform, c.alg, c.dataset, hw)
		if r.Status != c.want {
			t.Errorf("%s/%s/%s: status = %v (err %v), want %v",
				c.platform, c.alg, c.dataset, r.Status, r.Err, c.want)
		}
		if r.Status == Crashed && !errors.Is(r.Err, cluster.ErrOutOfMemory) {
			t.Errorf("%s/%s/%s: crash should be out-of-memory, got %v",
				c.platform, c.alg, c.dataset, r.Err)
		}
	}
}

// fullGraphs caches full-scale datasets for the knife-edge matrix.
var (
	fullOnce   sync.Once
	fullGraphs map[string]*graph.Graph
)

func fullGraph(t testing.TB, name string) *graph.Graph {
	t.Helper()
	fullOnce.Do(func() {
		fullGraphs = make(map[string]*graph.Graph)
	})
	if g, ok := fullGraphs[name]; ok {
		return g
	}
	prof, err := datagen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := prof.GenerateScaled(1, 42)
	fullGraphs[name] = g
	return g
}

func runFull(t testing.TB, platformName, alg, dataset string) *Result {
	t.Helper()
	p, _ := ByName(platformName)
	prof, _ := datagen.ByName(dataset)
	g := fullGraph(t, dataset)
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	return p.Run(Spec{
		Algorithm: alg, Dataset: prof, G: g, HW: cluster.DAS4(20, 1),
		Params: params, WarmCache: true, ScaleFactor: 1,
	})
}

func TestCrashMatrixKnifeEdge(t *testing.T) {
	// Outcomes that sit close to the 20 GB node budget or a timeout
	// threshold; they need the full-scale datasets (skipped under
	// -short).
	if testing.Short() {
		t.Skip("full-scale datasets; run without -short")
	}
	cases := []struct {
		platform, alg, dataset string
		want                   Status
	}{
		// "for Friendster, ... Giraph completes only the EVO algorithm"
		{"Giraph", BFS, "Friendster", Crashed},
		// "Giraph, Hadoop and YARN crashed when running STATS" (DotaLeague)
		{"Giraph", STATS, "DotaLeague", Crashed},
		{"Hadoop", STATS, "DotaLeague", Crashed},
		// "we had to terminate Stratosphere after running STATS for
		// nearly 4 hours"
		{"Stratosphere", STATS, "DotaLeague", Timeout},
		// "STATS and CD run for more than 20 hours in Neo4j"
		{"Neo4j", CD, "DotaLeague", Timeout},
		// YARN cannot run Friendster at 20 machines (Section 4.3.2).
		{"YARN", BFS, "Friendster", Crashed},
	}
	for _, c := range cases {
		r := runFull(t, c.platform, c.alg, c.dataset)
		if r.Status != c.want {
			t.Errorf("%s/%s/%s: status = %v (err %v), want %v",
				c.platform, c.alg, c.dataset, r.Status, r.Err, c.want)
		}
	}
}

func TestNeo4jColdVsWarm(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	p, _ := ByName("Neo4j")
	prof, _ := datagen.ByName("KGS")
	g := testGraph(t, "KGS")
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	spec := Spec{Algorithm: BFS, Dataset: prof, G: g, HW: hw,
		Params: params, ScaleFactor: testScale}

	cold := p.Run(spec)
	spec.WarmCache = true
	warm := p.Run(spec)
	if cold.Status != OK || warm.Status != OK {
		t.Fatalf("cold=%v warm=%v", cold.Status, warm.Status)
	}
	if warm.Seconds >= cold.Seconds {
		t.Fatalf("warm %.1fs should beat cold %.1fs", warm.Seconds, cold.Seconds)
	}
}

func TestEPSAndVPSScale(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	r := runOne(t, "Giraph", BFS, "KGS", hw)
	if r.Status != OK {
		t.Fatal(r.Err)
	}
	// KGS is scaled down 10 times in both V and E before testScale.
	g := testGraph(t, "KGS")
	if got, want := r.EPS(), float64(g.NumEdges()*10*testScale)/r.Seconds; got != want {
		t.Fatalf("EPS = %v, want %v", got, want)
	}
	if got, want := r.VPS(), float64(g.NumVertices()*10*testScale)/r.Seconds; got != want {
		t.Fatalf("VPS = %v, want %v", got, want)
	}
}

func TestGraphLabKGSEdgeDoublingEPS(t *testing.T) {
	// Paper: "the EPS of Citation is about two times larger than that
	// of KGS ... due to the restriction of GraphLab to process only
	// directed graphs" — per unit of work, the undirected KGS costs
	// GraphLab twice its logical edges.
	hw := cluster.DAS4(20, 1)
	r := runOne(t, "GraphLab", BFS, "KGS", hw)
	if r.Status != OK {
		t.Fatal(r.Err)
	}
	var gatherWork int64
	for _, ph := range r.Profile.Phases {
		gatherWork += ph.Ops
	}
	if gatherWork == 0 {
		t.Fatal("no measured work")
	}
}

func TestTimeoutsSurfaceSeconds(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	r := runOne(t, "Neo4j", STATS, "DotaLeague", hw)
	if r.Status != Timeout {
		t.Skipf("status = %v", r.Status)
	}
	if r.Seconds < SingleNodeTimeout {
		t.Fatalf("timeout result should carry the projected duration, got %.0f", r.Seconds)
	}
	if r.Err == nil {
		t.Fatal("timeout should carry an explanation")
	}
}

// TestConcurrentRuns runs every platform from several goroutines at
// once: All and ByName hand out shared rows, so a run must keep all of
// its state in the run. Under -race this checks the rows stay
// read-only; every run must also price the same as a lone one.
func TestConcurrentRuns(t *testing.T) {
	g := testGraph(t, "Amazon")
	prof, _ := datagen.ByName("Amazon")
	params := algo.DefaultParams(42)
	params.BFSSource = algo.PickSource(g, 42)
	spec := Spec{Algorithm: BFS, Dataset: prof, G: g, HW: cluster.DAS4(4, 1),
		Params: params, WarmCache: true, ScaleFactor: testScale}
	for _, name := range pinnedPlatforms {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Run(spec)
		if want.Status != OK {
			t.Fatalf("%s: %v (%v)", name, want.Status, want.Err)
		}
		var wg sync.WaitGroup
		got := make([]*Result, 3)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = p.Run(spec)
			}()
		}
		wg.Wait()
		for _, r := range got {
			if r.Status != OK || r.Seconds != want.Seconds {
				t.Errorf("%s concurrent: %v %v s, alone %v s", name, r.Status, r.Seconds, want.Seconds)
			}
		}
	}
}
