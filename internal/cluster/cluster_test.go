package cluster

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestDAS4Defaults(t *testing.T) {
	hw := DAS4(20, 1)
	if hw.Nodes != 20 || hw.CoresPerNode != 1 {
		t.Fatalf("hw = %+v", hw)
	}
	if hw.Workers() != 20 {
		t.Fatalf("Workers = %d, want 20", hw.Workers())
	}
	if err := hw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Hardware{
		{Nodes: 0, CoresPerNode: 1, MemPerNode: 1, DiskMBps: 1, NetMBps: 1, OpsPerSec: 1},
		{Nodes: 1, CoresPerNode: 0, MemPerNode: 1, DiskMBps: 1, NetMBps: 1, OpsPerSec: 1},
		{Nodes: 1, CoresPerNode: 1, MemPerNode: 0, DiskMBps: 1, NetMBps: 1, OpsPerSec: 1},
		{Nodes: 1, CoresPerNode: 1, MemPerNode: 1, DiskMBps: -1, NetMBps: 1, OpsPerSec: 1},
	}
	for i, hw := range bad {
		if err := hw.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, hw)
		}
	}
}

func TestIngestLinear(t *testing.T) {
	// Table 6: HDFS ingestion is linear in size, about 1 s per 100 MB.
	hw := DAS4(20, 1)
	t100 := hw.IngestSeconds(100 << 20)
	t200 := hw.IngestSeconds(200 << 20)
	if t100 < 0.5 || t100 > 2.0 {
		t.Fatalf("100MB ingest = %.2fs, want ≈ 1s", t100)
	}
	if ratio := t200 / t100; ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("ingest not linear: %v", ratio)
	}
}

func TestQuickIngestMonotone(t *testing.T) {
	hw := DAS4(20, 1)
	f := func(a, b uint32) bool {
		s, l := int64(a), int64(a)+int64(b)
		return hw.IngestSeconds(l) >= hw.IngestSeconds(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMemory(t *testing.T) {
	hw := DAS4(1, 1)
	if err := CheckMemory(hw.MemPerNode-1, hw); err != nil {
		t.Fatalf("unexpected OOM: %v", err)
	}
	err := CheckMemory(hw.MemPerNode+1, hw)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestPhaseKindString(t *testing.T) {
	if PhaseCompute.String() != "compute" || PhaseIngest.String() != "ingest" {
		t.Fatal("PhaseKind names wrong")
	}
	if PhaseKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestProfileAccumulators(t *testing.T) {
	var p ExecutionProfile
	p.AddPhase(Phase{Ops: 10, Net: 100})
	p.AddPhase(Phase{Ops: 5, Net: 50})
	if p.TotalOps() != 15 || p.TotalNet() != 150 {
		t.Fatalf("totals: ops=%d net=%d", p.TotalOps(), p.TotalNet())
	}
}

func TestTimeBasics(t *testing.T) {
	hw := DAS4(20, 1)
	c := HadoopCosts()
	p := &ExecutionProfile{Platform: "Hadoop"}
	p.AddPhase(Phase{Name: "iter", Kind: PhaseCompute, Ops: 1_000_000, Jobs: 1, Tasks: 40})
	b := c.Time(p, hw)
	if b.Total <= 0 {
		t.Fatal("Total should be positive")
	}
	if b.Compute <= 0 {
		t.Fatal("Compute should be positive")
	}
	if b.Overhead < c.JobStartup {
		t.Fatalf("Overhead %.1f should include job startup %.1f", b.Overhead, c.JobStartup)
	}
	if got := b.Compute + b.Overhead; got != b.Total {
		t.Fatalf("Tc+To = %v != T = %v", got, b.Total)
	}
	if len(b.PerPhase) != 1 {
		t.Fatalf("PerPhase = %v", b.PerPhase)
	}
}

func TestTimeIngestExcluded(t *testing.T) {
	hw := SingleNode()
	c := Neo4jCosts()
	p := &ExecutionProfile{}
	p.AddPhase(Phase{Name: "ingest", Kind: PhaseIngest, DiskWrite: 1 << 30})
	b := c.Time(p, hw)
	if b.Total != c.Fixed {
		t.Fatalf("ingest leaked into Total: %v", b.Total)
	}
}

func TestTimeSkewBoundsCompute(t *testing.T) {
	hw := DAS4(10, 1)
	c := GiraphCosts()
	balanced := &ExecutionProfile{}
	balanced.AddPhase(Phase{Kind: PhaseCompute, Ops: 1_000_000})
	skewed := &ExecutionProfile{}
	skewed.AddPhase(Phase{Kind: PhaseCompute, Ops: 1_000_000, MaxPartOps: 500_000})
	bb, sb := c.Time(balanced, hw), c.Time(skewed, hw)
	if sb.Compute <= bb.Compute {
		t.Fatalf("skewed compute %.2f should exceed balanced %.2f", sb.Compute, bb.Compute)
	}
	// Skewed: one worker does half the work → 5x the balanced per-worker share.
	if ratio := sb.Compute / bb.Compute; ratio < 4.9 || ratio > 5.1 {
		t.Fatalf("skew ratio = %.2f, want ≈ 5", ratio)
	}
}

func TestIterationPenaltyShape(t *testing.T) {
	// The paper's central Hadoop finding: per-iteration job launches
	// dominate for multi-iteration algorithms. 68 one-job iterations
	// must cost far more setup than 6.
	hw := DAS4(20, 1)
	c := HadoopCosts()
	mk := func(iters int) *ExecutionProfile {
		p := &ExecutionProfile{Iterations: iters}
		for i := 0; i < iters; i++ {
			p.AddPhase(Phase{Kind: PhaseCompute, Ops: 100_000, Jobs: 1, Tasks: 40})
		}
		return p
	}
	t68 := c.Time(mk(68), hw).Total
	t6 := c.Time(mk(6), hw).Total
	if t68 < 8*t6 {
		t.Fatalf("68 iterations (%.0fs) should cost ≈ 11x of 6 iterations (%.0fs)", t68, t6)
	}
}

func TestPlatformOrderingOnIterativeJob(t *testing.T) {
	// The same measured profile shape must order the platforms as the
	// paper found for BFS: Hadoop worst, YARN slightly better,
	// Stratosphere much better, Giraph/GraphLab best.
	hw := DAS4(20, 1)
	iters := 6
	mk := func(jobsPerIter int, barrier bool) *ExecutionProfile {
		p := &ExecutionProfile{}
		for i := 0; i < iters; i++ {
			ph := Phase{Kind: PhaseCompute, Ops: 4_000_000}
			if barrier {
				ph.Barriers = 1
			} else {
				ph.Jobs = jobsPerIter
				ph.Tasks = 40
			}
			p.AddPhase(ph)
		}
		return p
	}
	hadoop := HadoopCosts().Time(mk(1, false), hw).Total
	yarn := YARNCosts().Time(mk(1, false), hw).Total
	strato := StratosphereCosts().Time(mk(1, false), hw).Total
	giraph := GiraphCosts().Time(mk(0, true), hw).Total
	graphlab := GraphLabCosts().Time(mk(0, true), hw).Total

	if !(hadoop > yarn && yarn > strato && strato > giraph && giraph > graphlab) {
		t.Fatalf("ordering violated: hadoop=%.0f yarn=%.0f strato=%.0f giraph=%.0f graphlab=%.0f",
			hadoop, yarn, strato, giraph, graphlab)
	}
	if hadoop < 3*strato {
		t.Fatalf("Stratosphere should be several times faster at 6 iterations: hadoop=%.0f strato=%.0f", hadoop, strato)
	}

	// At Amazon's 68 iterations the gap approaches an order of
	// magnitude (the paper's "up to an order of magnitude" claim).
	mk68 := func(c CostModel) float64 {
		p := &ExecutionProfile{}
		for i := 0; i < 68; i++ {
			p.AddPhase(Phase{Kind: PhaseCompute, Ops: 300_000, Jobs: 1, Tasks: 40})
		}
		return c.Time(p, hw).Total
	}
	if h, s := mk68(HadoopCosts()), mk68(StratosphereCosts()); h < 4*s {
		t.Fatalf("68-iteration gap too small: hadoop=%.0f strato=%.0f", h, s)
	}
}

func TestQuickTimeMonotonicity(t *testing.T) {
	hw := DAS4(20, 1)
	c := HadoopCosts()
	f := func(ops uint32, extra uint32) bool {
		p1 := &ExecutionProfile{}
		p1.AddPhase(Phase{Kind: PhaseCompute, Ops: int64(ops)})
		p2 := &ExecutionProfile{}
		p2.AddPhase(Phase{Kind: PhaseCompute, Ops: int64(ops) + int64(extra)})
		b1, b2 := c.Time(p1, hw), c.Time(p2, hw)
		return b2.Total >= b1.Total && b1.Total > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreNodesNeverSlower(t *testing.T) {
	// Pure compute/I/O phases must not slow down when nodes are added
	// (launch overheads can, but this profile has none).
	c := GraphLabCosts()
	f := func(ops uint32, rawNodes uint8) bool {
		n := int(rawNodes)%30 + 20
		p := &ExecutionProfile{}
		p.AddPhase(Phase{Kind: PhaseCompute, Ops: int64(ops), DiskRead: int64(ops)})
		small := c.Time(p, DAS4(n, 1))
		big := c.Time(p, DAS4(n+5, 1))
		return big.Total <= small.Total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryDemand(t *testing.T) {
	c := GiraphCosts()
	d := c.MemoryDemand(1000, 1000)
	want := c.MemBase + 1000 + int64(c.MemPerMsgByte*1000)
	if d != want {
		t.Fatalf("MemoryDemand = %d, want %d", d, want)
	}
}

func TestCostPresetsDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, c := range []CostModel{HadoopCosts(), YARNCosts(), StratosphereCosts(), GiraphCosts(), GraphLabCosts(), Neo4jCosts()} {
		if names[c.Name] {
			t.Fatalf("duplicate cost model name %q", c.Name)
		}
		names[c.Name] = true
		if c.OpsFactor <= 0 || c.DiskFactor <= 0 || c.NetFactor <= 0 {
			t.Fatalf("%s: non-positive factors: %+v", c.Name, c)
		}
	}
}
