package monitor

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func TestMeasuredMapsSamplesOntoCurves(t *testing.T) {
	// Two seconds of synthetic samples: goroutines ramp 1→10, heap
	// ramps 1→2 GB, net counter grows 1 MB per 100ms sample.
	var samples []obs.Sample
	for i := 0; i < 20; i++ {
		samples = append(samples, obs.Sample{
			ElapsedNs:  int64(i) * 100e6,
			Goroutines: 1 + i/2,
			HeapBytes:  uint64(1<<30 + i*(1<<30)/19),
			Counters: map[string]int64{
				"pregel.net_bytes":             int64(i) * 1 << 20,
				"dataflow.shuffle_bytes":       int64(i) * 1 << 19,
				"pregel.compute_calls":         int64(i) * 1000, // not a byte counter
				"mapreduce.map_output_records": 5,               // ignored
			},
		})
	}
	tr := Measured("Giraph", samples)

	if tr.Source != SourceMeasured {
		t.Fatalf("Source = %q, want %q", tr.Source, SourceMeasured)
	}
	if tr.Platform != "Giraph" {
		t.Fatalf("Platform = %q", tr.Platform)
	}
	if got := tr.Compute.CPU[0]; got != 1 {
		t.Errorf("CPU[0] = %v, want 1 goroutine", got)
	}
	if got := tr.Compute.CPU[Points-1]; got != 10 {
		t.Errorf("CPU[last] = %v, want 10 goroutines", got)
	}
	if got := tr.Compute.MemGB[0]; got < 0.99 || got > 1.01 {
		t.Errorf("MemGB[0] = %v, want ~1", got)
	}
	if got := tr.Compute.MemGB[Points-1]; got < 1.99 || got > 2.01 {
		t.Errorf("MemGB[last] = %v, want ~2", got)
	}
	// 1.5 MiB of net bytes per 100 ms = 15 MiB/s ≈ 125.8 Mbit/s at
	// every point after the first.
	if got := tr.Compute.NetMbps[Points/2]; got < 125 || got > 126.5 {
		t.Errorf("NetMbps[mid] = %v, want ~125.8", got)
	}
	// Master curves are zero: the single process is the compute node.
	if got := Max(tr.Master.CPU) + Max(tr.Master.MemGB) + Max(tr.Master.NetMbps); got != 0 {
		t.Errorf("master curves non-zero: %v", got)
	}
}

func TestNetBytesCountsRetransmissions(t *testing.T) {
	// Chaos retransmission counters are network traffic: real
	// monitoring would see the redelivered bytes on the wire.
	s := obs.Sample{Counters: map[string]int64{
		"pregel.net_bytes": 100,
		"msg.redelivered":  30,
		"shuffle.refetch":  20,
		"task.retries":     7, // not a byte counter
	}}
	if got := netBytes(s); got != 150 {
		t.Fatalf("netBytes = %d, want 150", got)
	}
}

func TestMeasuredEmpty(t *testing.T) {
	tr := Measured("Hadoop", nil)
	if tr.Source != SourceMeasured || tr.Platform != "Hadoop" {
		t.Fatalf("bad trace header: %+v", tr)
	}
	if Max(tr.Compute.CPU) != 0 {
		t.Fatalf("empty samples must produce zero curves")
	}
}

func TestRecordIsModelled(t *testing.T) {
	tr := Record("Giraph", Signature{}, cluster.Breakdown{Total: 300}, 3)
	if tr.Source != SourceModelled {
		t.Fatalf("Record Source = %q, want %q", tr.Source, SourceModelled)
	}
}

func TestNormalizeEdgeCases(t *testing.T) {
	if got := normalize(nil); got[0] != 0 || got[Points-1] != 0 {
		t.Fatal("normalize(nil) should be zeros")
	}
	got := normalize([]float64{7})
	if got[0] != 7 || got[Points-1] != 7 {
		t.Fatal("normalize(single) should be constant")
	}
	// Linear series stays linear under interpolation.
	in := make([]float64, 1000)
	for i := range in {
		in[i] = float64(i)
	}
	out := normalize(in)
	if out[0] != 0 || out[Points-1] != 999 {
		t.Fatalf("normalize endpoints: %v, %v", out[0], out[Points-1])
	}
	mid := out[Points/2]
	if mid < 480 || mid > 520 {
		t.Fatalf("normalize midpoint = %v", mid)
	}
}
