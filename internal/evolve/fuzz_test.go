package evolve_test

import (
	"bytes"
	"testing"

	"repro/internal/evolve"
	"repro/internal/graph"
)

// FuzzDeltaLog drives arbitrary insert/delete/compact interleavings
// (decoded from the fuzz input, 3 bytes per op) against a small fixed
// base graph and checks the package's two core contracts after every
// step:
//
//   - reader-epoch isolation: a snapshot pinned mid-stream
//     materialises to the same bytes no matter what is applied or
//     compacted after it;
//   - round-trip: the evolving graph's materialisation is always
//     byte-identical to building its net edge set (tracked by a
//     shadow set) from scratch through the batch builder.
//
// The base has 40 vertices, so the overlay spans three chunks, the last
// one partial, and the seeds write across each chunk boundary.
func FuzzDeltaLog(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02})
	// Insert and delete across the first chunk boundary, then compact.
	f.Add([]byte{0x00, 15, 16, 0x40, 15, 16, 0x80, 0, 0})
	// Pin, then write into all three chunks; the pin must not move.
	f.Add([]byte{0x00, 5, 39, 0xc0, 0, 0, 0x00, 31, 32, 0x40, 5, 39, 0x80, 0, 0, 0x00, 16, 33, 0x00, 5, 39})
	// Delete both of vertex 1's ring edges: an overlaid empty list.
	f.Add([]byte{0x40, 1, 0, 0xc0, 0, 0, 0x40, 1, 2, 0x00, 1, 2, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 40
		for _, directed := range []bool{false, true} {
			base := fuzzBase(n, directed)
			m := evolve.NewMutable(base)
			shadow := newShadow(base)

			var pinned *evolve.Snapshot
			var pinnedBytes []byte
			seq := uint64(0)
			for i := 0; i+2 < len(data); i += 3 {
				kind := data[i] >> 6
				u := graph.VertexID(int(data[i+1]) % n)
				v := graph.VertexID(int(data[i+2]) % n)
				switch kind {
				case 0, 1: // insert / delete one edge as a batch
					op := evolve.Op{Del: kind == 1, Src: u, Dst: v}
					seq++
					if _, err := m.Submit(evolve.Batch{Seq: seq, Ops: []evolve.Op{op}}); err != nil {
						t.Fatalf("Submit: %v", err)
					}
					shadow.apply([]evolve.Op{op})
				case 2: // compact
					m.Compact()
				case 3: // pin a snapshot (replacing any previous pin)
					pinned = m.Snapshot()
					pinnedBytes = graphBytes(t, pinned.Materialize())
				}

				// Round-trip: current state == scratch build of shadow.
				got := graphBytes(t, m.Snapshot().Materialize())
				want := graphBytes(t, shadow.build())
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d (%v): overlay diverged from batch build", i/3, directed)
				}
				// Isolation: the pinned snapshot never moves.
				if pinned != nil {
					if !bytes.Equal(graphBytes(t, pinned.Materialize()), pinnedBytes) {
						t.Fatalf("step %d (%v): pinned snapshot changed", i/3, directed)
					}
				}
			}
		}
	})
}

// fuzzBase is a small deterministic base graph: a ring plus chords.
func fuzzBase(n int, directed bool) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		if i%3 == 0 {
			b.AddEdge(graph.VertexID(i), graph.VertexID((i+7)%n))
		}
	}
	return b.Build()
}
