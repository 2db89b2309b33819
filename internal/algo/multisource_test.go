package algo

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
)

// multiSources picks k deterministic, distinct-where-possible sources
// spread over the vertex range.
func multiSources(g *graph.Graph, k int, seed int64) []graph.VertexID {
	n := g.NumVertices()
	out := make([]graph.VertexID, k)
	for i := range out {
		out[i] = graph.VertexID((int(PickSource(g, seed)) + i*(n/k+1)) % n)
	}
	return out
}

func treesEqual(t *testing.T, label string, got, want *BFSTree) {
	t.Helper()
	if !levelsEqual(got.Levels, want.Levels) {
		t.Fatalf("%s: levels differ", label)
	}
	for v := range got.Parents {
		if got.Parents[v] != want.Parents[v] {
			t.Fatalf("%s: parent of %d differs (%d vs %d)", label, v, got.Parents[v], want.Parents[v])
		}
	}
	if got.Visited != want.Visited || got.Iterations != want.Iterations {
		t.Fatalf("%s: counters (%d,%d), want (%d,%d)",
			label, got.Visited, got.Iterations, want.Visited, want.Iterations)
	}
}

// TestBFSMultiSourceEquivalence pins the batching contract: every lane
// of a batched sweep is byte-identical — levels, parents, and counters
// — to the sequential RefBFSTree from the same source, across worker
// counts and lane counts, on directed and undirected graphs.
func TestBFSMultiSourceEquivalence(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gapGraph(t, 1500, 12000, directed, 11)
		refs := make(map[graph.VertexID]*BFSTree)
		ref := func(src graph.VertexID) *BFSTree {
			if tr, ok := refs[src]; ok {
				return tr
			}
			tr := RefBFSTree(g, src)
			refs[src] = tr
			return tr
		}
		for _, workers := range []int{1, 4, 8} {
			for _, lanes := range []int{1, 3, 64} {
				srcs := multiSources(g, lanes, 11)
				trees, err := BFSMultiSource(context.Background(), g, srcs, GapOptions{Workers: workers})
				if err != nil {
					t.Fatalf("directed=%v workers=%d lanes=%d: %v", directed, workers, lanes, err)
				}
				if len(trees) != lanes {
					t.Fatalf("got %d trees, want %d", len(trees), lanes)
				}
				for l, src := range srcs {
					treesEqual(t, formatLane(directed, workers, lanes, l), trees[l], ref(src))
					if err := ValidateBFSTree(g, src, trees[l]); err != nil {
						t.Fatalf("%s: certificate: %v", formatLane(directed, workers, lanes, l), err)
					}
					if err := ValidateBFS(g, src, &trees[l].BFSResult); err != nil {
						t.Fatalf("%s: ValidateBFS: %v", formatLane(directed, workers, lanes, l), err)
					}
				}
			}
		}
	}
}

func formatLane(directed bool, workers, lanes, lane int) string {
	s := "undirected"
	if directed {
		s = "directed"
	}
	return s + "/workers=" + itoa(workers) + "/lanes=" + itoa(lanes) + "/lane=" + itoa(lane)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestBFSMultiSourceLaneOrderInvariance is the property test: permuting
// the source order of a batch never changes any source's result — lane
// position is pure plumbing.
func TestBFSMultiSourceLaneOrderInvariance(t *testing.T) {
	g := gapGraph(t, 1200, 9000, false, 17)
	srcs := multiSources(g, 16, 17)
	base, err := BFSMultiSource(context.Background(), g, srcs, GapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bySrc := make(map[graph.VertexID]*BFSTree, len(srcs))
	for l, src := range srcs {
		bySrc[src] = base[l]
	}
	rng := NewRand(17)
	for trial := 0; trial < 5; trial++ {
		perm := append([]graph.VertexID(nil), srcs...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		trees, err := BFSMultiSource(context.Background(), g, perm, GapOptions{Workers: 1 + trial%3})
		if err != nil {
			t.Fatal(err)
		}
		for l, src := range perm {
			treesEqual(t, "trial="+itoa(trial)+"/src="+itoa(int(src)), trees[l], bySrc[src])
		}
	}
}

// TestBFSMultiSourceDuplicateSources: duplicate sources are independent
// lanes with identical results.
func TestBFSMultiSourceDuplicateSources(t *testing.T) {
	g := gapGraph(t, 600, 4000, false, 5)
	src := PickSource(g, 5)
	trees, err := BFSMultiSource(context.Background(), g,
		[]graph.VertexID{src, src, src}, GapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := RefBFSTree(g, src)
	for l := range trees {
		treesEqual(t, "dup lane "+itoa(l), trees[l], want)
	}
}

// TestBFSMultiSourceDeadline pins the in-flight cancellation contract:
// an expired context aborts the sweep from its loop header with a typed
// ErrDeadlineExceeded, not a partial result.
func TestBFSMultiSourceDeadline(t *testing.T) {
	g := gapGraph(t, 800, 6000, false, 3)
	srcs := multiSources(g, 8, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired at the first loop header
	trees, err := BFSMultiSource(ctx, g, srcs, GapOptions{})
	if err == nil {
		t.Fatal("canceled context returned no error")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v is not ErrDeadlineExceeded", err)
	}
	if trees != nil {
		t.Fatal("canceled sweep returned partial results")
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := BFSMultiSource(dctx, g, srcs, GapOptions{}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("past deadline: error %v is not ErrDeadlineExceeded", err)
	}
}

// TestBFSMultiSourceBounds: lane capacity and source range are
// validated up front.
func TestBFSMultiSourceBounds(t *testing.T) {
	g := gapGraph(t, 100, 500, false, 1)
	if trees, err := BFSMultiSource(context.Background(), g, nil, GapOptions{}); err != nil || trees != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", trees, err)
	}
	too := make([]graph.VertexID, MaxBFSLanes+1)
	if _, err := BFSMultiSource(context.Background(), g, too, GapOptions{}); err == nil {
		t.Fatal("65 lanes accepted")
	}
	if _, err := BFSMultiSource(context.Background(), g,
		[]graph.VertexID{graph.VertexID(g.NumVertices())}, GapOptions{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
