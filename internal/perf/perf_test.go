package perf

import "testing"

// Benchmarks for the tracked baseline suite, so individual entries can
// be profiled with the standard tooling:
//
//	go test -run NONE -bench BenchmarkSuite/pregel-bfs-dotaleague \
//	    -cpuprofile cpu.out ./internal/perf/
func BenchmarkSuite(b *testing.B) {
	for _, bench := range Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			bench.Run(b)
		})
	}
}

func TestReferencePrefersAfter(t *testing.T) {
	before := &Metrics{NsPerOp: 2000}
	after := &Metrics{NsPerOp: 1000}
	if got := reference(&Record{Before: before, After: after}); got != after {
		t.Fatal("reference must prefer the post-PR measurement")
	}
	if got := reference(&Record{Before: before}); got != before {
		t.Fatal("reference must fall back to the pre-PR measurement")
	}
}
