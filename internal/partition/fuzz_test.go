package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzPartition drives every strategy over adversarial degree
// distributions — hubs, isolated vertices, self-dense cliques — and
// checks the structural contract: every vertex owned exactly once,
// every stored arc counted exactly once, replication at least one,
// stats summing to the global totals.
func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint16(50), uint16(200), uint8(4), true, uint8(0))
	f.Add(int64(2), uint16(1), uint16(0), uint8(1), false, uint8(1))
	f.Add(int64(3), uint16(300), uint16(50), uint8(100), false, uint8(2))
	f.Add(int64(4), uint16(64), uint16(4000), uint8(64), true, uint8(3))
	f.Add(int64(5), uint16(10), uint16(30), uint8(255), false, uint8(4))

	f.Fuzz(func(t *testing.T, seed int64, rawN, rawE uint16, rawShards uint8, directed bool, hubbiness uint8) {
		n := int(rawN)%500 + 1
		edges := int(rawE) % 5000
		shards := int(rawShards)%128 + 1
		rng := rand.New(rand.NewSource(seed))

		b := graph.NewBuilder(n, directed)
		for i := 0; i < edges; i++ {
			u := graph.VertexID(rng.Intn(n))
			// hubbiness concentrates sources on a few vertices, the
			// power-law shape real graphs have.
			if hubbiness > 0 && rng.Intn(256) < int(hubbiness) {
				u = graph.VertexID(rng.Intn(min(8, n)))
			}
			v := graph.VertexID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()

		for _, name := range Names() {
			p, err := Build(name, g, shards)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if p.Shards != shards {
				t.Fatalf("%s: Shards = %d, want %d", name, p.Shards, shards)
			}
			seen := make([]bool, n)
			for s, members := range p.Members {
				for _, v := range members {
					if seen[v] {
						t.Fatalf("%s: vertex %d assigned twice", name, v)
					}
					seen[v] = true
					if int(p.Owner[v]) != s {
						t.Fatalf("%s: members/Owner disagree on %d", name, v)
					}
				}
			}
			for v := 0; v < n; v++ {
				if !seen[v] {
					t.Fatalf("%s: vertex %d unassigned", name, v)
				}
			}

			st := p.ComputeStats(g)
			vsum := 0
			for _, c := range st.ShardVertices {
				vsum += c
			}
			if vsum != n {
				t.Fatalf("%s: ShardVertices sum %d != %d", name, vsum, n)
			}
			var asum int64
			for _, c := range st.ShardArcs {
				asum += c
			}
			if asum != g.AdjSize() {
				t.Fatalf("%s: ShardArcs sum %d != %d", name, asum, g.AdjSize())
			}
			if st.ReplicationFactor < 1 {
				t.Fatalf("%s: RF %v < 1", name, st.ReplicationFactor)
			}
			if st.CutArcs < 0 || st.CutArcs > st.Arcs {
				t.Fatalf("%s: CutArcs %d outside [0,%d]", name, st.CutArcs, st.Arcs)
			}
			if p.IsVertexCut() {
				// Every stored arc maps to exactly one in-range machine.
				g.Edges(func(e graph.Edge) {
					if s := p.edgeShard(e.Src, e.Dst); s < 0 || s >= shards {
						t.Fatalf("%s: edge placed out of range: %d", name, s)
					}
				})
			}
		}
	})
}
