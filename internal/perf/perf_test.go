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
