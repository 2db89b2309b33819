package mapreduce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// identity job: map and reduce pass records through untouched.
func identityJob() JobConfig[intVal] {
	return JobConfig[intVal]{
		Name:   "identity",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) { out.Emit(k, v) }),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			for _, v := range vals {
				out.Emit(k, v)
			}
		}),
	}
}

func TestQuickIdentityJobConservesRecords(t *testing.T) {
	f := func(seed int64, rawN uint16, nodes uint8) bool {
		n := int(rawN) % 500
		rng := rand.New(rand.NewSource(seed))
		in := make(partition.Dataset[intVal], n)
		var sum int64
		for i := range in {
			v := intVal(rng.Intn(1000))
			in[i] = partition.Record[intVal]{Key: int64(rng.Intn(50)), Value: v}
			sum += int64(v)
		}
		e := New(cluster.DAS4(int(nodes)%8+1, 1))
		out, stats, err := Run(e, identityJob(), in, in.Bytes())
		if err != nil {
			return false
		}
		if len(out) != n || stats.MapInputRecords != int64(n) {
			return false
		}
		var got int64
		for _, kv := range out {
			got += int64(kv.Value)
		}
		return got == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShuffleBytesMatchReduceInput(t *testing.T) {
	// Shuffle bytes are exactly the serialised size of what reducers
	// receive.
	f := func(seed int64, rawN uint16) bool {
		n := int(rawN)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		in := make(partition.Dataset[intVal], n)
		for i := range in {
			in[i] = partition.Record[intVal]{Key: int64(rng.Intn(20)), Value: intVal(1)}
		}
		e := New(cluster.DAS4(4, 1))
		_, stats, err := Run(e, identityJob(), in, 0)
		if err != nil {
			return false
		}
		// Identity mapper: map output == input records; each record is
		// 10 (key) + 8 (intVal) bytes on the wire.
		return stats.ShuffleBytes == int64(n)*18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitTaskCounts(t *testing.T) {
	in := makeInput(100)
	e := newEngine(4)
	cfg := identityJob()
	cfg.NumMaps, cfg.NumReduces = 3, 2
	out, _, err := Run(e, cfg, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("out = %d", len(out))
	}
	// The setup phase records 3 map + 2 reduce task launches.
	var tasks int
	for _, ph := range e.Profile.Phases {
		tasks += ph.Tasks
	}
	if tasks != 5 {
		t.Fatalf("tasks = %d, want 5", tasks)
	}
}

func TestChargeFlowsIntoOps(t *testing.T) {
	in := makeInput(10)
	run := func(charge int64) int64 {
		e := newEngine(2)
		cfg := JobConfig[intVal]{
			Name: "charge",
			Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
				out.Charge(charge)
				out.Emit(k, v)
			}),
			Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {}),
		}
		if _, _, err := Run(e, cfg, in, 0); err != nil {
			t.Fatal(err)
		}
		return e.Profile.TotalOps()
	}
	if base, charged := run(0), run(1000); charged < base+10*1000 {
		t.Fatalf("Charge not accounted: %d vs %d", base, charged)
	}
}

func TestPeakJobBytesTracksLargestJob(t *testing.T) {
	e := newEngine(2)
	small := makeInput(10)
	big := makeInput(1000)
	if _, _, err := Run(e, identityJob(), small, small.Bytes()); err != nil {
		t.Fatal(err)
	}
	after1 := e.PeakJobBytesPerNode
	if _, _, err := Run(e, identityJob(), big, big.Bytes()); err != nil {
		t.Fatal(err)
	}
	if e.PeakJobBytesPerNode <= after1 {
		t.Fatalf("peak %d did not grow past %d", e.PeakJobBytesPerNode, after1)
	}
	if _, _, err := Run(e, identityJob(), small, small.Bytes()); err != nil {
		t.Fatal(err)
	}
	if e.PeakJobBytesPerNode < after1 {
		t.Fatal("peak should be monotone")
	}
}

func TestSpillAccounting(t *testing.T) {
	in := makeInput(1000)
	run := func(buffer int64) int64 {
		e := newEngine(2)
		e.SortBufferBytes = buffer
		_, stats, err := Run(e, identityJob(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats.SpillBytes
	}
	// The paper's 1.5 GB default never spills at this size.
	if got := run(0); got != 0 {
		t.Fatalf("default buffer spilled %d bytes", got)
	}
	// A tiny buffer forces spilling, which shows up as extra disk I/O.
	spilled := run(64)
	if spilled == 0 {
		t.Fatal("tiny buffer should spill")
	}
	e := newEngine(2)
	e.SortBufferBytes = 64
	if _, _, err := Run(e, identityJob(), in, 0); err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, ph := range e.Profile.Phases {
		if ph.Kind == cluster.PhaseShuffle {
			disk += ph.DiskWrite
		}
	}
	if disk <= spilled {
		t.Fatalf("spill bytes %d not reflected in shuffle disk %d", spilled, disk)
	}
}
