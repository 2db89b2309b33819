package algo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// The values the platform programs move. Rec is the value of the
// record-oriented platforms (MapReduce, PACT), which read
// VertexRecords and whose final state Labels and Dists read; the
// *Msg types are the Pregel programs' messages, and DistMsg and
// WDistMsg their BFS and SSSP vertex values too. Every one is a
// partition.Sized value: its Size is the footprint every shuffle,
// disk and memory account charges.

// Rec is the one value the record-oriented platforms shuffle, by
// value, in a partition.Record: a vertex's state or one of the
// messages their jobs exchange, told apart by Kind. It holds no
// pointer — a neighbour list rides as a Span into the run's
// Adjacency — so a dataset of records is one pointer-free array the
// garbage collector never scans and an append never write-barriers.
// Size reproduces the serialised footprint of the paper's
// plain-text-like framing.
type Rec struct {
	// Dist is a vertex's BFS level or SSSP distance (-1 when
	// unreached) and a distance candidate's value.
	Dist int64
	// Score is a vertex's or a vote's CD score.
	Score float64
	// Out and In name a vertex's out- and in-lists in the Adjacency
	// (In is empty for undirected graphs, as in the paper's text
	// format); a list message's list is Out.
	Out, In Span
	// Label is a vertex's or a vote's CONN / CD label.
	Label graph.VertexID
	Kind  RecKind
	// Weighted marks a vertex record that carries its out-arc weights
	// (SSSP): they sit in the Adjacency at Out's offsets, and the
	// record's size counts them.
	Weighted bool
	// Frontier marks an SSSP vertex whose distance improved in the
	// round that just ran, so it relaxes its out-arcs in the next.
	Frontier bool
}

// Span names a neighbour list in an Adjacency by offset and length.
type Span struct{ Off, Len uint32 }

// RecKind tells what a Rec is.
type RecKind uint8

// Record kinds. The zero kind is no record.
const (
	KindVertex RecKind = iota + 1 // per-vertex state with its adjacency
	KindDist                      // BFS distance candidate (Dist)
	KindWDist                     // SSSP distance candidate (Dist)
	KindLabel                     // CONN label or CD vote (Label, Score)
	KindList                      // STATS neighbour list (Out)
	KindCount                     // partial counts (see CountRec)
	KindEdge                      // one evolution edge (see EdgeRec)
)

// Size reports the record's serialised byte footprint.
func (r Rec) Size() int64 {
	switch r.Kind {
	case KindVertex:
		s := int64(r.Out.Len)*5 + int64(r.In.Len)*5 + 16
		if r.Weighted {
			s += int64(r.Out.Len)*4 + 12
		}
		return s
	case KindDist:
		return 5
	case KindWDist:
		return 9
	case KindLabel:
		return 14
	case KindList:
		return int64(r.Out.Len)*5 + 4
	case KindCount:
		return 24
	case KindEdge:
		return 10
	}
	panic(fmt.Sprintf("algo: Size of a record of kind %d", r.Kind))
}

// DistRec is a BFS distance candidate.
func DistRec(d int64) Rec { return Rec{Kind: KindDist, Dist: d} }

// WDistRec is a weighted (SSSP) distance candidate.
func WDistRec(d int64) Rec { return Rec{Kind: KindWDist, Dist: d} }

// LabelRec is a CONN label or a CD vote.
func LabelRec(label graph.VertexID, score float64) Rec {
	return Rec{Kind: KindLabel, Label: label, Score: score}
}

// ListRec carries a neighbour list (STATS neighbourhood exchange — the
// message-volume bomb) by its span.
func ListRec(list Span) Rec { return Rec{Kind: KindList, Out: list} }

// CountRec carries partial sums for STATS and EVO aggregation: the
// vertices ride in Label (a count of vertices fits a vertex ID), the
// edges in Dist and the LCC sum in Score.
func CountRec(vertices, edges int64, lccSum float64) Rec {
	return Rec{Kind: KindCount, Label: graph.VertexID(vertices), Dist: edges, Score: lccSum}
}

// Count returns a CountRec's sums.
func (r Rec) Count() (vertices, edges int64, lccSum float64) {
	return int64(r.Label), r.Dist, r.Score
}

// EdgeRec carries one evolution edge: its source rides in Label, its
// destination in Dist.
func EdgeRec(e graph.Edge) Rec { return Rec{Kind: KindEdge, Label: e.Src, Dist: int64(e.Dst)} }

// Edge returns an EdgeRec's edge.
func (r Rec) Edge() graph.Edge { return graph.Edge{Src: r.Label, Dst: graph.VertexID(r.Dist)} }

// Adjacency is the neighbour-list store the records of one run name
// their lists in: the graph's CSR arrays for a static run, which an
// EVO run extends as an append-only slab. Lists are never modified in
// place, so a span stays valid for the whole run.
type Adjacency struct {
	outOff, inOff []int64 // the graph's CSR offsets, for Vertex
	out, in       []graph.VertexID
	weights       []uint32 // aligned with out; nil for unweighted graphs

	mu sync.Mutex // serialises Extend
}

// NewAdjacency returns the store over g's CSR arrays. It copies no
// list: an EVO run's first Extend moves the arrays to a fresh slab.
func NewAdjacency(g *graph.Graph) *Adjacency {
	a := &Adjacency{}
	a.outOff, a.out, a.weights = g.OutCSR()
	if g.Directed() {
		a.inOff, a.in = g.InCSR()
	}
	if len(a.out) > math.MaxUint32 || len(a.in) > math.MaxUint32 {
		panic(fmt.Sprintf("algo: %v has more arcs than a Span can name", g))
	}
	// Full slice expressions: an append always copies, never writing
	// past the end of the graph's arrays.
	a.out, a.in = a.out[:len(a.out):len(a.out)], a.in[:len(a.in):len(a.in)]
	return a
}

// Vertex returns v's vertex record: its lists in the graph (the
// in-list for directed graphs only), unreached, labelled v. weighted
// adds the out-arc weights to the record.
func (a *Adjacency) Vertex(v graph.VertexID, weighted bool) Rec {
	r := Rec{Kind: KindVertex, Dist: -1, Label: v, Out: spanOf(a.outOff, v)}
	if a.inOff != nil {
		r.In = spanOf(a.inOff, v)
	}
	r.Weighted = weighted && a.weights != nil
	return r
}

func spanOf(offsets []int64, v graph.VertexID) Span {
	return Span{Off: uint32(offsets[v]), Len: uint32(offsets[v+1] - offsets[v])}
}

// VertexRecords returns g's vertex records keyed by vertex: the
// dataset MapReduce and PACT read from the DFS, one record per vertex
// in the paper's vertex-line layout, its lists named in adj
// (NewAdjacency(g)). weighted adds the out-arc weights SSSP relaxes.
func VertexRecords(g *graph.Graph, adj *Adjacency, weighted bool) partition.Dataset[Rec] {
	d := make(partition.Dataset[Rec], g.NumVertices())
	for v := range d {
		d[v] = partition.Record[Rec]{Key: int64(v), Value: adj.Vertex(graph.VertexID(v), weighted)}
	}
	return d
}

// Labels reads each vertex's label off state, a final dataset of an
// n-vertex graph's vertex records in any order.
func Labels(state partition.Dataset[Rec], n int) []graph.VertexID {
	labels := make([]graph.VertexID, n)
	for _, r := range state {
		if r.Value.Kind == KindVertex {
			labels[r.Key] = r.Value.Label
		}
	}
	return labels
}

// Dists reads each vertex's Dist off state as Labels reads its label,
// -1 for a vertex with no record: BFS levels as D int32, SSSP
// distances as D int64.
func Dists[D int32 | int64](state partition.Dataset[Rec], n int) []D {
	dist := make([]D, n)
	for i := range dist {
		dist[i] = -1
	}
	for _, r := range state {
		if r.Value.Kind == KindVertex {
			dist[r.Key] = D(r.Value.Dist)
		}
	}
	return dist
}

// Out returns the list r.Out names: a vertex's out-list or a list
// message's list. It must not run concurrently with Extend.
func (a *Adjacency) Out(r Rec) []graph.VertexID { return a.out[r.Out.Off : r.Out.Off+r.Out.Len] }

// In returns a vertex record's in-list. It must not run concurrently
// with Extend.
func (a *Adjacency) In(r Rec) []graph.VertexID { return a.in[r.In.Off : r.In.Off+r.In.Len] }

// Weights returns a weighted vertex record's out-arc weights, aligned
// with Out(r). Extend grows no weights: SSSP runs never extend.
func (a *Adjacency) Weights(r Rec) []uint32 { return a.weights[r.Out.Off : r.Out.Off+r.Out.Len] }

// Extend returns r with out appended to its out-list and in to its
// in-list. Each grown list is copied, old elements then new, to the
// end of the store; r's old lists stay where they are. Concurrent
// Extends are safe.
func (a *Adjacency) Extend(r Rec, out, in []graph.VertexID) Rec {
	if len(out) == 0 && len(in) == 0 {
		return r
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(out) > 0 {
		r.Out = extend(&a.out, r.Out, out)
	}
	if len(in) > 0 {
		r.In = extend(&a.in, r.In, in)
	}
	return r
}

func extend(store *[]graph.VertexID, old Span, add []graph.VertexID) Span {
	s := *store
	off := len(s)
	s = append(s, s[old.Off:old.Off+old.Len]...)
	s = append(s, add...)
	if len(s) > math.MaxUint32 {
		panic("algo: adjacency slab outgrew a Span")
	}
	*store = s
	return Span{Off: uint32(off), Len: old.Len + uint32(len(add))}
}

// Message types of the Pregel programs (pregelalgo). Size reports each
// message's serialised byte footprint, the same figure the matching
// Rec kind reports.

// DistMsg is a BFS distance candidate, and a BFS vertex's level (-1
// when unreached).
type DistMsg int32

// Size makes DistMsg a partition.Sized value.
func (DistMsg) Size() int64 { return 5 }

// WDistMsg is a weighted (SSSP) distance candidate, and an SSSP
// vertex's distance (-1 when unreached).
type WDistMsg int64

// Size makes WDistMsg a partition.Sized value.
func (WDistMsg) Size() int64 { return 9 }

// LabelMsg is a CONN label or CD vote.
type LabelMsg struct {
	Label graph.VertexID
	Score float64
}

// Size makes LabelMsg a partition.Sized value.
func (LabelMsg) Size() int64 { return 14 }

// ListMsg carries a neighbour list. STATS sends the graph's own
// out-list, uncopied, to every neighbour, so a receiver must not
// modify it (a pregel checkpoint shares it too).
type ListMsg []graph.VertexID

// Size makes ListMsg a partition.Sized value.
func (l ListMsg) Size() int64 { return int64(len(l))*5 + 4 }

// EdgeMsg carries one evolution edge.
type EdgeMsg graph.Edge

// Size makes EdgeMsg a partition.Sized value.
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

// NeighborhoodOf returns the sorted distinct union of a vertex's
// sorted out- and in-lists (the STATS neighbourhood): out itself when
// in is empty.
func NeighborhoodOf(out, in []graph.VertexID) []graph.VertexID {
	if len(in) == 0 {
		return out
	}
	merged := make([]graph.VertexID, 0, len(out)+len(in))
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		switch {
		case j >= len(in) || (i < len(out) && out[i] < in[j]):
			merged = append(merged, out[i])
			i++
		case i >= len(out) || in[j] < out[i]:
			merged = append(merged, in[j])
			j++
		default:
			merged = append(merged, out[i])
			i++
			j++
		}
	}
	return merged
}
