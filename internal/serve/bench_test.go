package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// BenchmarkClosedLoop is the closed-loop caller sweep of DESIGN.md §15:
// N callers each issue Server.BFS back to back on DotaLeague@8, query i
// taking the i-th source of a seeded vertex permutation, with a
// 128-source result cache as in the claim benchmark's serve-cold-batch,
// so nearly every query rides a batch. It reports sustained q/s, the
// lanes a batch achieved and how long a swept batch waited, on
// average, for the certificate stage to take it (serve.handoff.ns).
//
//	go test -run '^$' -bench ClosedLoop -benchtime 2s -cpu 1,2 ./internal/serve/
func BenchmarkClosedLoop(b *testing.B) {
	sess := obs.NewSession(obs.Options{NoSampler: true})
	s, err := New(Config{
		Datasets:        []string{"DotaLeague"},
		QueryTimeout:    30 * time.Second,
		ResultCacheSize: 128,
		Obs:             sess,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	g, err := s.Graph("DotaLeague")
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewSource(42)).Perm(g.NumVertices())
	reg := sess.R()
	batches, lanes, handoff := reg.Counter("serve.batches"), reg.Counter("serve.lanes"), reg.Counter("serve.handoff.ns")

	for _, callers := range []int{1, 4, 16, 32, 64, 96, 128} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			batches0, lanes0, handoff0 := batches.Get(), lanes.Get(), handoff.Get()
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						src := graph.VertexID(perm[i%int64(len(perm))])
						if _, err := s.BFS(context.Background(), "DotaLeague", src, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "q/s")
			if nb := batches.Get() - batches0; nb > 0 {
				b.ReportMetric(float64(lanes.Get()-lanes0)/float64(nb), "lanes/batch")
				b.ReportMetric(float64(handoff.Get()-handoff0)/float64(nb)/1e3, "handoff-us/batch")
			}
		})
	}
}
