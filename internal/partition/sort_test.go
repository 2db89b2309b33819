package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tagged is a record whose idx is its input position, so a result
// shows both the order of keys and the order of ties.
type tagged struct {
	key int64
	idx int
}

func taggedKey(r tagged) int64 { return r.key }

// checkSortByKey compares SortByKey with a slices.SortStableFunc
// oracle and checks the input is untouched.
func checkSortByKey(t *testing.T, name string, keys []int64) {
	t.Helper()
	in := make([]tagged, len(keys))
	for i, k := range keys {
		in[i] = tagged{k, i}
	}
	before := slices.Clone(in)
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b tagged) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	got := SortByKey(in, taggedKey)
	if !slices.Equal(in, before) {
		t.Fatalf("%s: SortByKey modified its input", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestSortByKeyMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, lo, span int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = lo + rng.Int63n(span)
		}
		return keys
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 70000} {
		checkSortByKey(t, "few keys", draw(n, 0, 37))
		checkSortByKey(t, "negative keys", draw(n, -1000, 900))
		checkSortByKey(t, "all equal", draw(n, -5, 1))
	}
	// max − min of exactly 2⁸, 2¹⁶ and 2³²: one bit past a whole number
	// of 8-bit passes. Then the full int64 range, whose offset does not
	// fit one word beside the index.
	for _, span := range []int64{1 << 8, 1 << 16, 1 << 32} {
		keys := draw(70000, -span/2, span)
		keys[0], keys[1] = -span/2, -span/2+span // min and max present
		checkSortByKey(t, "span", keys)
	}
	extremes := draw(70000, -3, 7)
	for i := range extremes {
		switch rng.Intn(4) {
		case 0:
			extremes[i] = math.MinInt64
		case 1:
			extremes[i] = math.MaxInt64
		case 2:
			extremes[i] = int64(rng.Uint64())
		}
	}
	checkSortByKey(t, "MinInt64..MaxInt64", extremes)
	checkSortByKey(t, "MinInt64, MaxInt64", []int64{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64})
}

// FuzzSortByKey checks SortByKey against the stable-sort oracle over
// arbitrary key lists: each 8 fuzz bytes are one key, reduced to the
// fuzzed span so that ties, narrow spans and full-width keys all occur.
func FuzzSortByKey(f *testing.F) {
	f.Add([]byte{}, uint8(64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(64))
	f.Add(make([]byte, 8*300), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, bitsOf uint8) {
		width := uint(bitsOf) % 65
		keys := make([]int64, len(raw)/8)
		for i := range keys {
			var u uint64
			for b := 0; b < 8; b++ {
				u |= uint64(raw[8*i+b]) << (8 * b)
			}
			if width < 64 {
				u &= 1<<width - 1
				u -= 1 << width >> 1 // centre the span on zero
			}
			keys[i] = int64(u)
		}
		checkSortByKey(t, "fuzz", keys)
	})
}
