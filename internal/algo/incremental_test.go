package algo_test

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
)

func streamGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	p, err := datagen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.GenerateScaled(64, 42)
}

// TestIncrementalEquivalenceMatrix is the stream CI gate's core: drive
// a seeded update stream, compact periodically, and at EVERY
// compaction point check the incremental component labels
// byte-identical against full recomputation over the compacted graph.
func TestIncrementalEquivalenceMatrix(t *testing.T) {
	const compactEvery = 6
	for _, name := range []string{"KGS", "Citation"} {
		t.Run(name, func(t *testing.T) {
			g := streamGraph(t, name)
			batches := datagen.UpdateStream(g, 101, 30, 12, 0.3)

			m := evolve.NewMutable(g)
			cc := algo.NewIncrementalCC(g)

			compactions := 0
			for i, b := range batches {
				res, err := m.Submit(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, ab := range res.Applied {
					cc.Apply(ab.Batch.Ops)
				}
				if (i+1)%compactEvery != 0 {
					continue
				}
				snap := m.Compact()
				compactions++

				if err := algo.CheckLabelsEqual(cc.Labels(snap), snap.Base().ConnectedComponents()); err != nil {
					t.Fatalf("compaction %d (epoch %d): incremental CC diverged: %v",
						compactions, snap.Epoch(), err)
				}
			}
			if compactions != len(batches)/compactEvery {
				t.Fatalf("ran %d compactions, want %d", compactions, len(batches)/compactEvery)
			}
		})
	}
}

// TestIncrementalCCInsertOnly: pure insertions never trigger the
// rebuild fallback.
func TestIncrementalCCInsertOnly(t *testing.T) {
	g := streamGraph(t, "KGS")
	batches := datagen.UpdateStream(g, 7, 20, 8, 0) // deleteFrac 0
	m := evolve.NewMutable(g)
	cc := algo.NewIncrementalCC(g)
	for _, b := range batches {
		res, err := m.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range res.Applied {
			cc.Apply(ab.Batch.Ops)
		}
		// Equivalence must hold at every epoch, not just compaction
		// points (Labels materialises against the live snapshot).
		labels := cc.Labels(ab(res))
		if err := algo.CheckLabelsEqual(labels, ab(res).Materialize().ConnectedComponents()); err != nil {
			t.Fatalf("epoch %d: %v", res.Epoch, err)
		}
	}
	if cc.Rebuilds != 0 {
		t.Fatalf("insert-only stream triggered %d rebuilds", cc.Rebuilds)
	}
	if cc.Deletions != 0 {
		t.Fatalf("deleteFrac=0 stream recorded %d deletions", cc.Deletions)
	}
}

func ab(res evolve.SubmitResult) *evolve.Snapshot {
	return res.Applied[len(res.Applied)-1].After
}

// TestIncrementalCCDeletionFallback: a deletion dirties the structure
// and the next Labels call rebuilds — and is still exact.
func TestIncrementalCCDeletionFallback(t *testing.T) {
	g := streamGraph(t, "Citation")
	batches := datagen.UpdateStream(g, 11, 12, 8, 0.5)
	m := evolve.NewMutable(g)
	cc := algo.NewIncrementalCC(g)
	sawDeletion := false
	for _, b := range batches {
		res, err := m.Submit(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range b.Ops {
			if op.Del {
				sawDeletion = true
			}
		}
		for _, abb := range res.Applied {
			cc.Apply(abb.Batch.Ops)
		}
		snap := ab(res)
		if err := algo.CheckLabelsEqual(cc.Labels(snap), snap.Materialize().ConnectedComponents()); err != nil {
			t.Fatalf("epoch %d: %v", res.Epoch, err)
		}
	}
	if !sawDeletion {
		t.Fatal("stream produced no deletions; fallback untested")
	}
	if cc.Rebuilds == 0 {
		t.Fatal("deletions never triggered the rebuild fallback")
	}
}
