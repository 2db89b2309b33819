package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestFromSortedAdjacencyMatchesBuild: copying a graph's canonical
// lists must give Build's bytes exactly, on random directed and
// undirected graphs, dense and sparse (most lists empty), at the edge
// sizes 0, 1 and just past a power of two.
func TestFromSortedAdjacencyMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, directed := range []bool{false, true} {
		for _, n := range []int{0, 1, 17, 2049} {
			for _, m := range []int{4 * n, n / 4} {
				b := graph.NewBuilder(n, directed)
				for i := 0; i < m; i++ {
					if u, v := rng.Intn(n), rng.Intn(n); u != v {
						b.AddEdge(graph.VertexID(u), graph.VertexID(v))
					}
				}
				want := b.Build()
				got := graph.FromSortedAdjacency(n, directed, want.Out, want.In)
				name := fmt.Sprintf("directed=%v n=%d m=%d", directed, n, m)
				if !got.Equal(want) {
					t.Fatalf("%s: FromSortedAdjacency differs from Build", name)
				}
				if !bytes.Equal(binaryOf(t, got), binaryOf(t, want)) {
					t.Fatalf("%s: FromSortedAdjacency bytes differ from Build", name)
				}
			}
		}
	}
}

// TestFromSortedAdjacencyPanics: a list that breaks the contract fails
// loudly, naming what is wrong, instead of producing a non-canonical
// CSR.
func TestFromSortedAdjacencyPanics(t *testing.T) {
	cases := []struct {
		name string
		list []graph.VertexID
		want string
	}{
		{"unsorted", []graph.VertexID{3, 2}, "not strictly increasing"},
		{"duplicate", []graph.VertexID{2, 2}, "not strictly increasing"},
		{"self-loop", []graph.VertexID{1, 4}, "self-loop on 1"},
		{"too large", []graph.VertexID{2, 5}, "edge (1,5) out of range [0,5)"},
		{"negative", []graph.VertexID{-1, 2}, "edge (1,-1) out of range [0,5)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("list %v did not panic", tc.list)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, tc.want)
				}
			}()
			lists := func(v graph.VertexID) []graph.VertexID {
				if v == 1 {
					return tc.list
				}
				return nil
			}
			graph.FromSortedAdjacency(5, true, lists, lists)
		})
	}
}

func binaryOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
