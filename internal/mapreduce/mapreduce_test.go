package mapreduce

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// intVal is a simple test value.
type intVal int64

func (intVal) Size() int64 { return 8 }

// listVal is a variable-size test value.
type listVal []int64

func (l listVal) Size() int64 { return int64(len(l)) * 8 }

func newEngine(nodes int) *Engine {
	return New(cluster.DAS4(nodes, 1))
}

// sumJob: map emits (key%3, v), reduce sums values per key.
func sumJob(combiner bool) JobConfig[intVal] {
	cfg := JobConfig[intVal]{
		Name: "sum",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
			out.Emit(k%3, v)
		}),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			var s int64
			for _, v := range vals {
				s += int64(v)
			}
			out.Emit(k, intVal(s))
		}),
	}
	if combiner {
		cfg.Combiner = cfg.Reducer
	}
	return cfg
}

func makeInput(n int) partition.Dataset[intVal] {
	var d partition.Dataset[intVal]
	for i := 0; i < n; i++ {
		d = append(d, partition.Record[intVal]{Key: int64(i), Value: intVal(1)})
	}
	return d
}

func collectSums(t *testing.T, out partition.Dataset[intVal]) map[int64]int64 {
	t.Helper()
	got := map[int64]int64{}
	for _, kv := range out {
		got[kv.Key] += int64(kv.Value)
	}
	return got
}

func TestRunBasicJob(t *testing.T) {
	e := newEngine(4)
	out, stats, err := Run(e, sumJob(false), makeInput(300), 3000)
	if err != nil {
		t.Fatal(err)
	}
	got := collectSums(t, out)
	if got[0] != 100 || got[1] != 100 || got[2] != 100 {
		t.Fatalf("sums = %v, want 100 each", got)
	}
	if stats.MapInputRecords != 300 {
		t.Fatalf("MapInputRecords = %d", stats.MapInputRecords)
	}
	if stats.MapOutputRecs != 300 {
		t.Fatalf("MapOutputRecs = %d", stats.MapOutputRecs)
	}
	if stats.ReduceInputGroups != 3 {
		t.Fatalf("ReduceInputGroups = %d", stats.ReduceInputGroups)
	}
	if stats.ShuffleBytes <= 0 || stats.OutputBytes <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	in := makeInput(1000)
	without, _ := func() (*JobStats, partition.Dataset[intVal]) {
		e := newEngine(4)
		out, s, _ := Run(e, sumJob(false), in, 0)
		return s, out
	}()
	with, outC := func() (*JobStats, partition.Dataset[intVal]) {
		e := newEngine(4)
		out, s, _ := Run(e, sumJob(true), in, 0)
		return s, out
	}()
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d", with.ShuffleBytes, without.ShuffleBytes)
	}
	got := collectSums(t, outC)
	if got[0] != 334 || got[1] != 333 || got[2] != 333 {
		t.Fatalf("combiner changed results: %v", got)
	}
}

func TestCountersFlow(t *testing.T) {
	e := newEngine(2)
	cfg := JobConfig[intVal]{
		Name: "count",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) {
			out.Incr("mapped", 1)
			out.Emit(k, v)
		}),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			out.Incr("reduced", 1)
		}),
	}
	_, stats, err := Run(e, cfg, makeInput(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Get("mapped") != 50 {
		t.Fatalf("mapped = %d", stats.Counters.Get("mapped"))
	}
	if stats.Counters.Get("reduced") != 50 {
		t.Fatalf("reduced = %d", stats.Counters.Get("reduced"))
	}
}

func TestProfilePhases(t *testing.T) {
	e := newEngine(4)
	if _, _, err := Run(e, sumJob(false), makeInput(100), 12345); err != nil {
		t.Fatal(err)
	}
	kinds := map[cluster.PhaseKind]int{}
	for _, ph := range e.Profile.Phases {
		kinds[ph.Kind]++
	}
	for _, k := range []cluster.PhaseKind{cluster.PhaseSetup, cluster.PhaseRead, cluster.PhaseCompute, cluster.PhaseShuffle, cluster.PhaseWrite} {
		if kinds[k] == 0 {
			t.Errorf("missing phase kind %v", k)
		}
	}
	// Read phase must carry the declared input bytes.
	var read int64
	for _, ph := range e.Profile.Phases {
		if ph.Kind == cluster.PhaseRead {
			read += ph.DiskRead
		}
	}
	if read != 12345 {
		t.Fatalf("DiskRead = %d, want 12345", read)
	}
}

func TestMissingMapperOrReducer(t *testing.T) {
	e := newEngine(1)
	if _, _, err := Run(e, JobConfig[intVal]{Name: "bad"}, nil, 0); err == nil {
		t.Fatal("want error for missing mapper/reducer")
	}
}

func TestEmptyInput(t *testing.T) {
	e := newEngine(4)
	out, stats, err := Run(e, sumJob(false), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.MapInputRecords != 0 {
		t.Fatalf("out=%v stats=%+v", out, stats)
	}
}

func TestSplitDataset(t *testing.T) {
	d := makeInput(10)
	splits := partition.SplitContiguous(d, 3)
	if len(splits) != 3 {
		t.Fatalf("len = %d", len(splits))
	}
	total := 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	// More splits than records: empties allowed, nothing lost.
	splits = partition.SplitContiguous(makeInput(2), 5)
	total = 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
}

func TestScaleSkew(t *testing.T) {
	if got := scaleSkew(100, 100, 1, 10); got != 100 {
		t.Fatalf("tasks<=workers: %d", got)
	}
	// 100 tasks over 10 workers, balanced: busiest worker ≈ mean.
	if got := scaleSkew(10, 1000, 100, 10); got != 100 {
		t.Fatalf("balanced: %d", got)
	}
	// One hot task (500 of 1000): busiest worker ≈ 100 + (500-10).
	if got := scaleSkew(500, 1000, 100, 10); got != 590 {
		t.Fatalf("skewed: %d", got)
	}
	if got := scaleSkew(0, 0, 10, 5); got != 0 {
		t.Fatalf("zero: %d", got)
	}
}

func TestVariableSizeValues(t *testing.T) {
	e := newEngine(2)
	in := partition.Dataset[listVal]{
		{Key: 1, Value: listVal{1, 2, 3}},
		{Key: 2, Value: listVal{4}},
	}
	cfg := JobConfig[listVal]{
		Name: "ident",
		Mapper: MapperFunc[listVal](func(k int64, v listVal, out *Emitter[listVal]) {
			out.Emit(k, v)
		}),
		Reducer: ReducerFunc[listVal](func(k int64, vals []listVal, out *Emitter[listVal]) {
			for _, v := range vals {
				out.Emit(k, v)
			}
		}),
	}
	out, stats, err := Run(e, cfg, in, in.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if want := in.Bytes(); stats.OutputBytes != want {
		t.Fatalf("OutputBytes = %d, want %d", stats.OutputBytes, want)
	}
}

func TestNegativeKeysPartitionSafely(t *testing.T) {
	e := newEngine(4)
	in := partition.Dataset[intVal]{{Key: -5, Value: intVal(1)}, {Key: -1, Value: intVal(1)}, {Key: 3, Value: intVal(1)}}
	cfg := JobConfig[intVal]{
		Name:   "neg",
		Mapper: MapperFunc[intVal](func(k int64, v intVal, out *Emitter[intVal]) { out.Emit(k, v) }),
		Reducer: ReducerFunc[intVal](func(k int64, vals []intVal, out *Emitter[intVal]) {
			out.Emit(k, intVal(len(vals)))
		}),
	}
	out, _, err := Run(e, cfg, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() map[int64]int64 {
		e := newEngine(8)
		out, _, _ := Run(e, sumJob(true), makeInput(500), 0)
		return collectSums(t, out)
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("nondeterministic results: %v vs %v", a, b)
		}
	}
}
