package graph_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// randomGraph builds a canonical random graph for weight tests.
func randomGraph(t *testing.T, n, edges int, directed bool, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, directed)
	for i := 0; i < edges; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

func TestWithWeightsDeterminism(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomGraph(t, 200, 1200, directed, 7)
		a := graph.WithWeights(g, 99)
		b := graph.WithWeights(g, 99)
		if !a.Equal(b) {
			t.Fatalf("directed=%v: same seed produced different weighted graphs", directed)
		}
		c := graph.WithWeights(g, 100)
		if a.Equal(c) {
			t.Fatalf("directed=%v: different seeds produced identical weights", directed)
		}
		if !a.Weighted() {
			t.Fatalf("weighted view not marked weighted")
		}
		if g.Weighted() {
			t.Fatalf("WithWeights mutated the original graph")
		}
		// Idempotent: rewrapping a weighted view with the same seed
		// returns it unchanged.
		if graph.WithWeights(a, 99) != a {
			t.Fatalf("WithWeights(a, sameSeed) did not return a itself")
		}
	}
}

func TestWeightAlignment(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := graph.WithWeights(randomGraph(t, 150, 900, directed, 11), 42)
		for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
			out, ws := g.Out(v), g.OutWeights(v)
			if len(out) != len(ws) {
				t.Fatalf("OutWeights(%d) length %d, Out %d", v, len(ws), len(out))
			}
			for i, u := range out {
				if ws[i] == 0 || ws[i] > graph.MaxWeight {
					t.Fatalf("weight %d out of range", ws[i])
				}
				if got := g.WeightOf(v, u); got != ws[i] {
					t.Fatalf("WeightOf(%d,%d)=%d, OutWeights says %d", v, u, got, ws[i])
				}
			}
			ins, iws := g.In(v), g.InWeights(v)
			if len(ins) != len(iws) {
				t.Fatalf("InWeights(%d) length %d, In %d", v, len(iws), len(ins))
			}
			for i, u := range ins {
				if got := g.WeightOf(u, v); got != iws[i] {
					t.Fatalf("in-arc (%d,%d) weight %d, WeightOf says %d", u, v, iws[i], got)
				}
			}
		}
	}
}

func TestWeightSymmetryUndirected(t *testing.T) {
	g := graph.WithWeights(randomGraph(t, 120, 700, false, 3), 5)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Out(v) {
			if g.WeightOf(v, u) != g.WeightOf(u, v) {
				t.Fatalf("undirected weight asymmetric on edge (%d,%d)", v, u)
			}
		}
	}
	if graph.WeightFor(5, 3, 9, false) != graph.WeightFor(5, 9, 3, false) {
		t.Fatalf("WeightFor not symmetric for undirected endpoints")
	}
}

// snapshotVersion decodes the version field of serialised snapshot
// bytes.
func snapshotVersion(t *testing.T, b []byte) uint32 {
	t.Helper()
	if len(b) < 8 {
		t.Fatalf("snapshot too short (%d bytes)", len(b))
	}
	return binary.LittleEndian.Uint32(b[4:8])
}

// TestBinaryRefusesWeightedGraph: the format has no weight sections, so
// writing a weighted view must fail loudly, not drop the weights.
func TestBinaryRefusesWeightedGraph(t *testing.T) {
	g := graph.WithWeights(randomGraph(t, 60, 300, true, 21), 77)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err == nil {
		t.Fatalf("WriteBinary accepted a weighted graph (%d bytes written)", buf.Len())
	}
}

func TestBinaryUnweightedStaysVersion1(t *testing.T) {
	g := randomGraph(t, 100, 500, true, 9)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if v := snapshotVersion(t, buf.Bytes()); v != graph.BinaryVersion {
		t.Fatalf("unweighted snapshot wrote version %d, want %d", v, graph.BinaryVersion)
	}
	back, err := graph.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary of v1 snapshot: %v", err)
	}
	if back.Weighted() {
		t.Fatalf("v1 snapshot loaded as weighted")
	}
	if !back.Equal(g) {
		t.Fatalf("v1 round trip altered the graph")
	}
}

func TestBinaryV1RejectsWeightedFlag(t *testing.T) {
	g := randomGraph(t, 50, 200, false, 13)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	// Flag bit 1 marked weight sections in the retired version 2; on a
	// version-1 header it is an unknown flag.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[8] |= 2
	if _, err := graph.ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatalf("v1 snapshot with weighted flag accepted")
	}
	// A version-2 header (what a weighted snapshot used to carry) is
	// refused outright, with or without the flag.
	for _, flag := range []byte{0, 2} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[4], raw[8] = 2, raw[8]|flag
		if _, err := graph.ReadBinary(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("version-2 snapshot (flags %#x): err = %v, want a version error", raw[8], err)
		}
	}
}

func TestBitset(t *testing.T) {
	b := graph.NewBitset(200)
	if b.Len() != 200 || b.Count() != 0 {
		t.Fatalf("fresh bitset Len=%d Count=%d", b.Len(), b.Count())
	}
	for _, v := range []graph.VertexID{0, 1, 63, 65, 127, 128, 199} {
		b.Set(v)
	}
	if b.Count() != 7 {
		t.Fatalf("Count=%d, want 7", b.Count())
	}
	if !b.Get(63) || b.Get(64) || !b.Get(65) || b.Get(62) {
		t.Fatalf("Get wrong around word boundary")
	}

	var got []graph.VertexID
	b.Range(0, 200, func(v graph.VertexID) { got = append(got, v) })
	want := []graph.VertexID{0, 1, 63, 65, 127, 128, 199}
	if len(got) != len(want) {
		t.Fatalf("Range yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range yielded %v, want %v", got, want)
		}
	}

	// Subrange with boundaries inside words.
	got = got[:0]
	b.Range(1, 128, func(v graph.VertexID) { got = append(got, v) })
	want = []graph.VertexID{1, 63, 65, 127}
	if len(got) != len(want) {
		t.Fatalf("subrange yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subrange yielded %v, want %v", got, want)
		}
	}

	o := graph.NewBitset(200)
	o.Set(5)
	b.Swap(o)
	if b.Count() != 1 || !b.Get(5) || o.Count() != 7 {
		t.Fatalf("Swap did not exchange contents")
	}
	b.Zero()
	if b.Count() != 0 {
		t.Fatalf("Zero left %d bits", b.Count())
	}
}
