package graph

import "math/bits"

// Bitset is a fixed-size set of vertex IDs packed 64 per word — the
// frontier representation of the direction-optimizing kernels and the
// GAS engine's active set. The zero value is unusable; create one with
// NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size n.
func (b *Bitset) Len() int { return b.n }

// Get reports whether v is in the set.
func (b *Bitset) Get(v VertexID) bool {
	return b.words[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

// Set adds v to the set.
func (b *Bitset) Set(v VertexID) {
	b.words[uint32(v)>>6] |= 1 << (uint32(v) & 63)
}

// Zero clears the whole set, keeping capacity.
func (b *Bitset) Zero() { clear(b.words) }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Swap exchanges the contents of b and o, which must have equal Len.
func (b *Bitset) Swap(o *Bitset) {
	b.words, o.words = o.words, b.words
}

// Range calls fn for every set bit in [lo, hi), in ascending order,
// skipping empty words — the word-skip iteration that makes sparse
// frontiers cheap to walk.
func (b *Bitset) Range(lo, hi int, fn func(v VertexID)) {
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return
	}
	wlo, whi := lo>>6, (hi-1)>>6
	for wi := wlo; wi <= whi; wi++ {
		w := b.words[wi]
		if w == 0 {
			continue
		}
		if wi == wlo {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == whi && (hi&63) != 0 {
			w &= (1 << (uint(hi) & 63)) - 1
		}
		for w != 0 {
			v := VertexID(wi<<6 + bits.TrailingZeros64(w))
			fn(v)
			w &= w - 1
		}
	}
}
