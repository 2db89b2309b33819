package graphbench

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fault"
)

// TestChaosGolden holds the chaos gate's output fixed: `graphbench
// -scale 40 -nodes 4 -fault-seed S chaos E A KGS` for the five engines
// × fault seeds 1–3 × {BFS, CONN}, the cells CI runs, must equal
// testdata/chaos.txt byte for byte. A chaos run is a pure function of
// (seed, plan), so the injected counts, recovery counters and penalties
// repeat to the digit. After an intended change of the fault plan or
// of a recovery path, regenerate with the CLI:
//
//	for e in pregel mapreduce yarn dataflow gas; do for s in 1 2 3; do for a in BFS CONN; do
//	  go run ./cmd/graphbench -scale 40 -nodes 4 -fault-seed $s chaos $e $a KGS
//	done; done; done > testdata/chaos.txt
func TestChaosGolden(t *testing.T) {
	h := bench.New(bench.Config{Seed: 42, Scale: 40})
	var got bytes.Buffer
	for _, name := range []string{"Giraph", "Hadoop", "YARN", "Stratosphere", "GraphLab"} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, alg := range []string{"BFS", "CONN"} {
				got.WriteString(h.Chaos(name, alg, "KGS", cluster.DAS4(4, 1), fault.DefaultPlan(seed)).String())
			}
		}
	}
	requireGolden(t, "testdata/chaos.txt", got.Bytes())
}
