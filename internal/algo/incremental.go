package algo

import (
	"fmt"

	"repro/internal/evolve"
	"repro/internal/graph"
)

// Incremental algorithms over the evolving graph (internal/evolve).
//
// The evolving path maintains exactly one derived view — component
// labels — because it is the only one a query reads. It is maintained
// per applied batch and must stay BYTE-IDENTICAL to a full recompute
// over the compacted graph at every compaction point — the contract
// the stream CI gate enforces. That rules out the usual approximate
// incremental formulations; instead IncrementalCC maintains a
// union-find whose roots are component minima. Because
// graph.ConnectedComponents' labels are canonical (the minimum vertex
// ID of each weak component), any correct min-root maintenance yields
// the identical label array, no matter the merge order. Deletions can
// split components, which union-find cannot undo, so a deletion marks
// the structure dirty and the next Labels call rebuilds from the
// snapshot — the documented deletion-triggered full-recompute fallback.
//
// Callers must feed every applied batch exactly once, in sequence
// order — precisely the stream evolve.Mutable.Submit returns.

// IncrementalCC maintains connected-component labels under edge
// insertions, with a deletion-triggered rebuild fallback. Not safe for
// concurrent use; the serve layer serialises writers per dataset.
type IncrementalCC struct {
	parent []int32
	dirty  bool

	// Inserts, Deletions, Rebuilds count maintenance operations since
	// construction (observability; no behavioural role).
	Inserts   int64
	Deletions int64
	Rebuilds  int64
}

// NewIncrementalCC seeds the union-find from g's component labels:
// parent[v] = label(v) is a valid depth-1 forest whose roots are the
// component minima.
func NewIncrementalCC(g *graph.Graph) *IncrementalCC {
	labels := g.ConnectedComponents()
	parent := make([]int32, len(labels))
	for i, l := range labels {
		parent[i] = int32(l)
	}
	return &IncrementalCC{parent: parent}
}

func (cc *IncrementalCC) find(x int32) int32 {
	for cc.parent[x] != x {
		cc.parent[x] = cc.parent[cc.parent[x]]
		x = cc.parent[x]
	}
	return x
}

// union attaches the larger root under the smaller, preserving the
// roots-are-minima invariant.
func (cc *IncrementalCC) union(u, v graph.VertexID) {
	ra, rb := cc.find(int32(u)), cc.find(int32(v))
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	cc.parent[rb] = ra
}

// Apply folds one applied batch's ops in. Insertions union their
// endpoints (weak connectivity, matching the reference); any deletion
// marks the structure dirty for rebuild at the next Labels call —
// conservative (a deletion of one parallel path does not split the
// component) but always correct.
func (cc *IncrementalCC) Apply(ops []evolve.Op) {
	for _, op := range ops {
		if op.Src == op.Dst {
			continue
		}
		if op.Del {
			cc.dirty = true
			cc.Deletions++
			continue
		}
		cc.union(op.Src, op.Dst)
		cc.Inserts++
	}
}

// Labels materialises the label array for s's epoch. s must be the
// snapshot whose applied batches have all been fed through Apply. If a
// deletion dirtied the structure, Labels rebuilds the union-find from
// s's adjacency first (O(V+E)); otherwise it is a find per vertex.
// The result is byte-identical to s.Materialize().ConnectedComponents().
func (cc *IncrementalCC) Labels(s *evolve.Snapshot) []graph.VertexID {
	if cc.dirty {
		cc.rebuild(s)
		cc.dirty = false
		cc.Rebuilds++
	}
	labels := make([]graph.VertexID, len(cc.parent))
	for v := range labels {
		labels[v] = graph.VertexID(cc.find(int32(v)))
	}
	return labels
}

// rebuild recomputes the union-find from scratch over s's adjacency.
// Out-lists alone cover weak connectivity: every arc appears in its
// tail's out-list and union is symmetric, so an undirected edge is
// united once, from its lower endpoint.
func (cc *IncrementalCC) rebuild(s *evolve.Snapshot) {
	n := s.NumVertices()
	directed := s.Directed()
	for i := range cc.parent {
		cc.parent[i] = int32(i)
	}
	for vi := 0; vi < n; vi++ {
		u := graph.VertexID(vi)
		for _, v := range s.Out(u) {
			if !directed && v < u {
				continue
			}
			cc.union(u, v)
		}
	}
}

// CheckLabelsEqual verifies two component-label arrays are identical.
func CheckLabelsEqual(got, want []graph.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("algo: label array length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("algo: label[%d] diverged: %d != %d", i, got[i], want[i])
		}
	}
	return nil
}
