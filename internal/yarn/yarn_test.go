package yarn

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

func newRM() *ResourceManager {
	return NewResourceManager(cluster.DAS4(4, 1))
}

func TestSubmitAndFinish(t *testing.T) {
	rm := newRM()
	am, err := rm.Submit("bfs", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(am.ID, "application_") {
		t.Fatalf("ID = %q", am.ID)
	}
	if rm.allocated != 1<<30 {
		t.Fatalf("allocated=%d", rm.allocated)
	}
	am.Finish()
	if rm.allocated != 0 {
		t.Fatalf("after finish: allocated=%d", rm.allocated)
	}
	am.Finish() // idempotent
	if rm.allocated != 0 {
		t.Fatal("double Finish released twice")
	}
}

func TestMaxAllocationEnforced(t *testing.T) {
	rm := newRM()
	if _, err := rm.Submit("big", DefaultMaxAllocation+1); err == nil {
		t.Fatal("oversized AM container accepted")
	}
	if _, err := rm.Submit("ok", DefaultMaxAllocation); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	rm := newRM()
	var ams []*ApplicationMaster
	for granted := int64(0); granted+DefaultMaxAllocation <= rm.Capacity(); granted += DefaultMaxAllocation {
		am, err := rm.Submit("app", DefaultMaxAllocation)
		if err != nil {
			t.Fatal(err)
		}
		ams = append(ams, am)
	}
	if _, err := rm.Submit("one too many", DefaultMaxAllocation); err == nil {
		t.Fatal("over-capacity request accepted")
	}
	for _, am := range ams {
		am.Finish()
	}
	if rm.allocated != 0 {
		t.Fatalf("allocated = %d after finish", rm.allocated)
	}
}

func TestEngineRunsJobs(t *testing.T) {
	rm := newRM()
	am, err := rm.Submit("sum", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer am.Finish()

	in := partition.Dataset[unit]{}
	for i := 0; i < 30; i++ {
		in = append(in, partition.Record[unit]{Key: int64(i), Value: unit{}})
	}
	cfg := mapreduce.JobConfig[unit]{
		Name: "count",
		Mapper: mapreduce.MapperFunc[unit](func(k int64, v unit, out *mapreduce.Emitter[unit]) {
			out.Emit(0, v)
		}),
		Reducer: mapreduce.ReducerFunc[unit](func(k int64, vals []unit, out *mapreduce.Emitter[unit]) {
			out.Incr("n", int64(len(vals)))
		}),
	}
	_, stats, err := mapreduce.Run(am.Engine(), cfg, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Get("n") != 30 {
		t.Fatalf("n = %d", stats.Counters.Get("n"))
	}
	if len(am.Engine().Profile.Phases) == 0 {
		t.Fatal("no profile recorded")
	}
}

type unit struct{}

func (unit) Size() int64 { return 1 }

func TestMultipleApplications(t *testing.T) {
	rm := newRM()
	a, err := rm.Submit("a", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rm.Submit("b", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate application IDs")
	}
	if rm.allocated != 2<<30 {
		t.Fatalf("two running applications hold %d bytes, want 2 GB", rm.allocated)
	}
	a.Finish()
	b.Finish()
}
