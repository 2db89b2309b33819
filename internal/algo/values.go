package algo

import (
	"sync"

	"repro/internal/graph"
)

// Record and message types shared by the record-oriented platforms
// (MapReduce, PACT). Size methods report serialised byte footprints in
// the paper's plain-text-like framing; they drive every shuffle, disk,
// and memory account.

// VertexRec is the full per-vertex state record materialised between
// iterations: adjacency (incoming list only for directed graphs, as in
// the paper's text format) plus the algorithm state.
type VertexRec struct {
	Out []graph.VertexID
	In  []graph.VertexID // nil for undirected graphs

	// WOut carries the out-arc weights aligned with Out; nil for
	// unweighted algorithms, so their record sizes (and therefore every
	// pre-weights shuffle/disk account) are unchanged.
	WOut []uint32

	Dist  int32          // BFS level, -1 when unreached
	Label graph.VertexID // CONN / CD label
	Score float64        // CD score

	DistW  int64 // SSSP distance, -1 when unreached
	WRound int32 // SSSP round the distance was last improved in
}

// Size implements the engine Value interfaces.
func (r *VertexRec) Size() int64 {
	s := int64(len(r.Out))*5 + int64(len(r.In))*5 + 16
	if r.WOut != nil {
		s += int64(len(r.WOut))*4 + 12
	}
	return s
}

// Clone returns a copy with fresh state fields but shared adjacency
// slices (adjacency is immutable throughout every algorithm).
func (r *VertexRec) Clone() *VertexRec {
	c := *r
	return &c
}

// Both returns the union view of out- and in-neighbours (out only for
// undirected records, where In is nil).
func (r *VertexRec) Both() []graph.VertexID {
	if len(r.In) == 0 {
		return r.Out
	}
	all := make([]graph.VertexID, 0, len(r.Out)+len(r.In))
	all = append(all, r.Out...)
	all = append(all, r.In...)
	return all
}

// DistMsg is a BFS distance candidate.
type DistMsg int32

// Size implements the engine Value interfaces.
func (DistMsg) Size() int64 { return 5 }

// WDistMsg is a weighted (SSSP) distance candidate.
type WDistMsg int64

// Size implements the engine Value interfaces.
func (WDistMsg) Size() int64 { return 9 }

// LabelMsg is a CONN label or CD vote.
type LabelMsg struct {
	Label graph.VertexID
	Score float64
}

// Size implements the engine Value interfaces.
func (LabelMsg) Size() int64 { return 14 }

// ListMsg carries a neighbour list (STATS neighbourhood exchange —
// the message-volume bomb). Converting it to an engine's interface type
// boxes the slice header on the heap, so a sender converts its list
// once and sends that one value to every neighbour.
type ListMsg []graph.VertexID

// Size implements the engine Value interfaces.
func (l ListMsg) Size() int64 { return int64(len(l))*5 + 4 }

// CountMsg carries partial sums for STATS aggregation.
type CountMsg struct {
	Vertices int64
	Edges    int64
	LCCSum   float64
}

// Size implements the engine Value interfaces.
func (CountMsg) Size() int64 { return 24 }

// EdgeMsg carries one evolution edge.
type EdgeMsg graph.Edge

// Size implements the engine Value interfaces.
func (EdgeMsg) Size() int64 { return 10 }

// LinkCounter counts, for one vertex's neighbourhood, the closing links
// each neighbour's out-list contributes — the per-message step of the
// distributed STATS. The neighbourhood is marked once in a bitset over
// vertex IDs, so counting a list costs one load and one add per element
// instead of a branchy sorted merge (DESIGN.md §9). A counter belongs
// to one goroutine between AcquireLinkCounter and Release.
type LinkCounter struct {
	bits []uint64
	nbrs []graph.VertexID // the marked words, cleared by Release
}

var linkCounters = sync.Pool{New: func() any { return new(LinkCounter) }}

// AcquireLinkCounter takes a pooled counter and marks nbrs, a distinct
// neighbourhood of vertex IDs below n. The caller must not modify nbrs
// before Release.
func AcquireLinkCounter(n int, nbrs []graph.VertexID) *LinkCounter {
	c := linkCounters.Get().(*LinkCounter)
	if words := (n + 63) / 64; len(c.bits) < words {
		c.bits = make([]uint64, words)
	}
	for _, x := range nbrs {
		c.bits[uint32(x)/64] |= 1 << (uint32(x) % 64)
	}
	c.nbrs = nbrs
	return c
}

// Links returns how many vertices of list, a distinct out-list, are in
// the marked neighbourhood.
func (c *LinkCounter) Links(list []graph.VertexID) int64 {
	bits := c.bits
	var links uint64
	for _, x := range list {
		links += bits[uint32(x)/64] >> (uint32(x) % 64) & 1
	}
	return int64(links)
}

// Release zeroes the words the neighbourhood touched and returns the
// counter to the pool.
func (c *LinkCounter) Release() {
	for _, x := range c.nbrs {
		c.bits[uint32(x)/64] = 0
	}
	c.nbrs = nil
	linkCounters.Put(c)
}

// LCCOf finishes a vertex's LCC from its link count and neighbourhood
// size, matching graph.LCC's directed/undirected conventions.
func LCCOf(links int64, k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(links) / (float64(k) * float64(k-1))
}

// NeighborhoodOf returns the sorted distinct union of out- and
// in-neighbours from a record (the STATS neighbourhood).
func NeighborhoodOf(r *VertexRec) []graph.VertexID {
	if len(r.In) == 0 {
		return r.Out
	}
	merged := make([]graph.VertexID, 0, len(r.Out)+len(r.In))
	i, j := 0, 0
	for i < len(r.Out) || j < len(r.In) {
		switch {
		case j >= len(r.In) || (i < len(r.Out) && r.Out[i] < r.In[j]):
			merged = append(merged, r.Out[i])
			i++
		case i >= len(r.Out) || r.In[j] < r.Out[i]:
			merged = append(merged, r.In[j])
			j++
		default:
			merged = append(merged, r.Out[i])
			i++
			j++
		}
	}
	return merged
}
