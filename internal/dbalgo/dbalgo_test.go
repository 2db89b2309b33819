package dbalgo

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/graphdb"
)

func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for _, name := range []string{"Amazon", "KGS", "Citation"} {
		p, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.GenerateScaled(60, 5))
	}
	return out
}

func open(g *graph.Graph) *graphdb.DB {
	return graphdb.Open(g, graphdb.DefaultConfig())
}

func TestBFSLazyReadOnLowCoverage(t *testing.T) {
	// Lazy reads: a traversal that stays in a small region of the
	// graph pages in only that region, even cold. A directed path
	// cannot reach the large clique beside it.
	b := graph.NewBuilder(1100, true)
	for i := 0; i < 99; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1)) // path 0..99
	}
	for i := 100; i < 1100; i++ { // dense blob, unreachable from the path
		for j := 0; j < 20; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(100+(i+j)%1000))
		}
	}
	b.AddEdge(100, 0) // weak link so the largest component is everything
	g := b.Build()
	db := open(g)
	profile := &cluster.ExecutionProfile{}
	res, err := BFS(db, 0, profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 100 {
		t.Fatalf("visited = %d, want the 100-vertex path only", res.Visited)
	}
	var diskRead int64
	for _, ph := range profile.Phases {
		diskRead += ph.DiskRead
	}
	if diskRead > db.StoreBytes()/10 {
		t.Fatalf("cold low-coverage BFS read %d of %d store bytes (lazy read broken)",
			diskRead, db.StoreBytes())
	}
}

func TestHotRunNoDisk(t *testing.T) {
	g := testGraphs(t)[1]
	db := open(g)
	src := algo.PickSource(g, 42)
	if _, err := BFS(db, src, nil); err != nil { // cold
		t.Fatal(err)
	}
	profile := &cluster.ExecutionProfile{}
	if _, err := BFS(db, src, profile); err != nil { // hot
		t.Fatal(err)
	}
	for _, ph := range profile.Phases {
		if ph.DiskRead > 0 || ph.Seeks > 0 {
			t.Fatalf("hot run touched disk: %+v", ph)
		}
	}
}

func TestStatsCostExplodesOnDenseGraph(t *testing.T) {
	// The paper's ">20 hours" Neo4j entries: STATS hop count grows with
	// sum(deg^2), so dense graphs dwarf sparse ones.
	dense, _ := datagen.ByName("DotaLeague")
	sparse, _ := datagen.ByName("Amazon")
	gd := dense.GenerateScaled(40, 5)
	gs := sparse.GenerateScaled(40, 5)
	hops := func(g *graph.Graph) int64 {
		profile := &cluster.ExecutionProfile{}
		if _, err := Stats(open(g), profile); err != nil {
			t.Fatal(err)
		}
		return profile.TotalOps()
	}
	hd, hs := hops(gd), hops(gs)
	// Normalise per edge: dense graphs cost far more per edge.
	if float64(hd)/float64(gd.NumEdges()) < 5*float64(hs)/float64(gs.NumEdges()) {
		t.Fatalf("dense per-edge STATS cost (%d ops / %d E) should dwarf sparse (%d / %d)",
			hd, gd.NumEdges(), hs, gs.NumEdges())
	}
}

func TestEVOWritesRelationships(t *testing.T) {
	g := testGraphs(t)[0]
	db := open(g)
	profile := &cluster.ExecutionProfile{}
	res, err := EVO(db, algo.DefaultParams(42), profile)
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, ph := range profile.Phases {
		disk += ph.DiskRead
	}
	if disk < int64(res.NewEdges)*graphdb.RelRecordBytes {
		t.Fatalf("EVO disk accounting %d below relationship writes", disk)
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := testGraphs(t)[0]
	if _, err := SSSP(open(g), 0, nil); err == nil {
		t.Fatal("SSSP accepted an unweighted graph")
	}
}
