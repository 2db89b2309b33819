package graphdb

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.Build()
}

func TestStoreBytes(t *testing.T) {
	g := ring(10) // 10 vertices, 10 undirected edges = 20 adjacency entries
	db := Open(g, DefaultConfig())
	want := int64(10*NodeRecordBytes + 20*RelRecordBytes)
	if got := db.StoreBytes(); got != want {
		t.Fatalf("StoreBytes = %d, want %d", got, want)
	}
}

func TestColdThenHot(t *testing.T) {
	g := ring(100)
	db := Open(g, DefaultConfig())

	cold := db.NewRun()
	for v := graph.VertexID(0); v < 100; v++ {
		cold.Neighbors(v)
	}
	if cold.DiskBytes == 0 || cold.Misses == 0 {
		t.Fatal("cold run should hit disk")
	}

	hot := db.NewRun()
	for v := graph.VertexID(0); v < 100; v++ {
		hot.Neighbors(v)
	}
	if hot.DiskBytes != 0 {
		t.Fatalf("hot run hit disk: %d bytes", hot.DiskBytes)
	}
	if hot.Hops != cold.Hops {
		t.Fatalf("hops differ: %d vs %d", hot.Hops, cold.Hops)
	}
}

func TestColdHotRatioViaCostModel(t *testing.T) {
	// The cold/hot execution-time ratio must be large (paper: up to
	// 45x for Citation).
	g := ring(2000)
	db := Open(g, DefaultConfig())
	hw := cluster.SingleNode()
	cm := cluster.Neo4jCosts()

	coldProfile := &cluster.ExecutionProfile{}
	run := db.NewRun()
	for v := graph.VertexID(0); v < 2000; v++ {
		run.Neighbors(v)
	}
	run.Finish("bfs", coldProfile)
	coldT := cm.Time(coldProfile, hw).Total

	hotProfile := &cluster.ExecutionProfile{}
	run = db.NewRun()
	for v := graph.VertexID(0); v < 2000; v++ {
		run.Neighbors(v)
	}
	run.Finish("bfs", hotProfile)
	hotT := cm.Time(hotProfile, hw).Total

	if ratio := coldT / hotT; ratio < 3 {
		t.Fatalf("cold/hot ratio = %.1f, want >= 3", ratio)
	}
}

func TestLazyReadTouchesOnlyVisited(t *testing.T) {
	// Lazy reads: an algorithm that visits 10 of 1000 vertices must
	// only page in those 10.
	g := ring(1000)
	db := Open(g, DefaultConfig())
	run := db.NewRun()
	for v := graph.VertexID(0); v < 10; v++ {
		run.Neighbors(v)
	}
	maxBytes := int64(10 * (NodeRecordBytes + 2*RelRecordBytes))
	if run.DiskBytes > maxBytes {
		t.Fatalf("DiskBytes = %d, want <= %d (lazy read)", run.DiskBytes, maxBytes)
	}
}

func TestFitsInMemoryProjection(t *testing.T) {
	g := ring(1000)
	small := Open(g, DefaultConfig())
	if small.cachedFrac < 1 {
		t.Fatal("small graph should fit")
	}
	cfg := DefaultConfig()
	cfg.Projection = 1 << 22 // blow it up past the heap
	big := Open(g, cfg)
	if big.cachedFrac >= 1 {
		t.Fatal("projected graph should not fit")
	}
	// Thrashing: even a second (hot) pass keeps missing.
	run := big.NewRun()
	for v := graph.VertexID(0); v < 1000; v++ {
		run.Neighbors(v)
	}
	hot := big.NewRun()
	for v := graph.VertexID(0); v < 1000; v++ {
		hot.Neighbors(v)
	}
	if hot.Misses == 0 {
		t.Fatal("thrashing DB should keep missing on hot runs")
	}
}

func TestIngestSecondsShape(t *testing.T) {
	// Per Table 6: vertex-heavy graphs ingest far slower than
	// edge-heavy ones of similar total size.
	vertexHeavy := graph.NewBuilder(100000, true)
	for i := 0; i < 99999; i++ {
		vertexHeavy.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	edgeHeavy := graph.NewBuilder(1000, false)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 100; j++ {
			edgeHeavy.AddEdge(graph.VertexID(i), graph.VertexID((i+j+1)%1000))
		}
	}
	tv := Open(vertexHeavy.Build(), DefaultConfig()).IngestSeconds()
	te := Open(edgeHeavy.Build(), DefaultConfig()).IngestSeconds()
	if tv < 5*te {
		t.Fatalf("vertex-heavy ingest %.0fs should dwarf edge-heavy %.0fs", tv, te)
	}
}

func TestIngestCalibrationAgainstTable6(t *testing.T) {
	// Projecting a tiny graph to Amazon's paper dimensions must give
	// roughly Table 6's 2.0 hours.
	b := graph.NewBuilder(262, true)
	for i := 0; i < 261; i++ {
		for j := 0; j < 4 && i+j+1 < 262; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(i+j+1))
		}
	}
	g := b.Build()
	cfg := DefaultConfig()
	cfg.Projection = 1000 // 262 vertices -> 262k
	db := Open(g, cfg)
	hours := db.IngestSeconds() / 3600
	if hours < 1.2 || hours > 3.5 {
		t.Fatalf("projected Amazon-scale ingest = %.1f h, want ≈ 2 h", hours)
	}
}

func TestInNeighborsSharesCache(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build()
	db := Open(g, DefaultConfig())
	run := db.NewRun()
	run.Neighbors(1) // loads vertex 1's chain
	before := run.DiskBytes
	run.InNeighbors(1) // same chain: no further disk
	if run.DiskBytes != before {
		t.Fatalf("InNeighbors re-read the chain: %d -> %d", before, run.DiskBytes)
	}
	if got := run.InNeighbors(1); len(got) != 2 {
		t.Fatalf("InNeighbors = %v", got)
	}
}

func TestFinishProfile(t *testing.T) {
	g := ring(50)
	db := Open(g, DefaultConfig())
	run := db.NewRun()
	for v := graph.VertexID(0); v < 50; v++ {
		run.Neighbors(v)
	}
	profile := &cluster.ExecutionProfile{}
	run.Finish("bfs", profile)
	if len(profile.Phases) != 2 {
		t.Fatalf("phases = %d, want traverse + pagein", len(profile.Phases))
	}
	if profile.Phases[0].Kind != cluster.PhaseCompute || profile.Phases[1].Seeks == 0 {
		t.Fatalf("phases = %+v", profile.Phases)
	}
	// Finish with nil profile must not panic.
	run.Finish("bfs", nil)
}

func TestOpenZeroConfigUsesDefaults(t *testing.T) {
	db := Open(ring(4), Config{})
	if db.cfg.HeapBytes != 20<<30 {
		t.Fatalf("cfg = %+v", db.cfg)
	}
}

func TestReopenRestoresColdBehaviour(t *testing.T) {
	g := ring(100)
	db := Open(g, DefaultConfig())

	cold := db.NewRun()
	for v := graph.VertexID(0); v < 100; v++ {
		cold.Neighbors(v)
	}
	if cold.DiskBytes == 0 {
		t.Fatal("cold run should hit disk")
	}

	hot := db.NewRun()
	for v := graph.VertexID(0); v < 100; v++ {
		hot.Neighbors(v)
	}
	if hot.DiskBytes != 0 {
		t.Fatalf("hot run hit disk: %d bytes", hot.DiskBytes)
	}

	// Opening the graph again must reproduce the cold run exactly: every
	// Neo4j run opens its own database, and the experiment driver's
	// cold leg relies on that first touch being cold.
	again := Open(g, DefaultConfig()).NewRun()
	for v := graph.VertexID(0); v < 100; v++ {
		again.Neighbors(v)
	}
	if again.DiskBytes != cold.DiskBytes || again.Misses != cold.Misses {
		t.Fatalf("reset run disk=%d misses=%d, cold run disk=%d misses=%d",
			again.DiskBytes, again.Misses, cold.DiskBytes, cold.Misses)
	}
}
