package hdfs

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func TestIngestLinear(t *testing.T) {
	// Table 6: HDFS ingestion is linear in size, about 1 s per 100 MB.
	hw := cluster.DAS4(20, 1)
	t100 := IngestSeconds(100<<20, hw)
	t200 := IngestSeconds(200<<20, hw)
	if t100 < 0.5 || t100 > 2.0 {
		t.Fatalf("100MB ingest = %.2fs, want ≈ 1s", t100)
	}
	if ratio := t200 / t100; ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("ingest not linear: %v", ratio)
	}
}

func TestQuickIngestMonotone(t *testing.T) {
	hw := cluster.DAS4(20, 1)
	f := func(a, b uint32) bool {
		s, l := int64(a), int64(a)+int64(b)
		return IngestSeconds(l, hw) >= IngestSeconds(s, hw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
