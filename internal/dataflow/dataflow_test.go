package dataflow

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

type i64 int64

func (i64) Size() int64 { return 8 }

func hw() cluster.Hardware { return cluster.DAS4(4, 1) }

func nums(n int) Dataset {
	var d Dataset
	for i := 0; i < n; i++ {
		d = append(d, Record{int64(i), i64(1)})
	}
	return d
}

func TestMapReducePipeline(t *testing.T) {
	p := NewPlan("wordcount")
	src := p.Source("in", nums(100), 1000)
	m := p.Map("mod", src, func(in Record, out *Collector) {
		out.Collect(in.Key%5, in.Value)
	}, None)
	r := p.Reduce("sum", m, func(key int64, in []Record, out *Collector) {
		var s int64
		for _, rec := range in {
			s += int64(rec.Value.(i64))
		}
		out.Collect(key, i64(s))
	}, SameKey)
	p.Sink(r, true)

	e := New(hw())
	outs, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %d", len(outs))
	}
	got := map[int64]int64{}
	for _, rec := range outs[0] {
		got[rec.Key] = int64(rec.Value.(i64))
	}
	for k := int64(0); k < 5; k++ {
		if got[k] != 20 {
			t.Fatalf("sum[%d] = %d, want 20", k, got[k])
		}
	}
}

// innerJoin is the equi-join a CoGroup expresses: one output per
// left/right pair sharing a key, the sum of their values.
func innerJoin(key int64, left, right []Record, out *Collector) {
	for _, l := range left {
		for _, r := range right {
			out.Collect(key, i64(int64(l.Value.(i64))+int64(r.Value.(i64))))
		}
	}
}

func TestCoGroupJoin(t *testing.T) {
	p := NewPlan("join")
	left := p.Source("l", Dataset{{1, i64(10)}, {2, i64(20)}, {3, i64(30)}}, 0)
	right := p.Source("r", Dataset{{2, i64(200)}, {3, i64(300)}, {4, i64(400)}}, 0)
	j := p.CoGroup("sum", left, right, innerJoin, SameKey)
	p.Sink(j, false)

	outs, err := New(hw()).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, rec := range outs[0] {
		got[rec.Key] = int64(rec.Value.(i64))
	}
	if len(got) != 2 || got[2] != 220 || got[3] != 330 {
		t.Fatalf("join = %v", got)
	}
}

func TestCoGroup(t *testing.T) {
	p := NewPlan("cogroup")
	left := p.Source("l", Dataset{{1, i64(1)}, {1, i64(2)}}, 0)
	right := p.Source("r", Dataset{{1, i64(3)}, {2, i64(4)}}, 0)
	cg := p.CoGroup("counts", left, right, func(key int64, l, r []Record, out *Collector) {
		out.Collect(key, i64(int64(len(l)*10+len(r))))
	}, None)
	p.Sink(cg, false)

	outs, err := New(hw()).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, rec := range outs[0] {
		got[rec.Key] = int64(rec.Value.(i64))
	}
	if got[1] != 21 || got[2] != 1 {
		t.Fatalf("cogroup = %v", got)
	}
}

// TestCoGroupSidesKeepPartitionOrder pins the stable sort under
// CoGroup: within one key, each side's group lists its records in the
// order its partition holds them — here source order, tagged by value —
// both straight from a source and after a repartitioning map.
func TestCoGroupSidesKeepPartitionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var left, right Dataset
	for i := 0; i < 5000; i++ {
		left = append(left, Record{Key: int64(rng.Intn(300)), Value: i64(i)})
		right = append(right, Record{Key: int64(rng.Intn(300)) - 150, Value: i64(i)})
	}
	p := NewPlan("order")
	l := p.Source("l", left, 0)
	// Negating the key twice leaves it unchanged but drops the key
	// partitioning, so the right side crosses a network channel.
	r := p.Map("neg", p.Map("neg", p.Source("r", right, 0), func(in Record, out *Collector) {
		out.Collect(-in.Key, in.Value)
	}, None), func(in Record, out *Collector) {
		out.Collect(-in.Key, in.Value)
	}, None)
	var bad atomic.Int64
	ascending := func(group []Record) {
		for i := 1; i < len(group); i++ {
			if group[i].Value.(i64) <= group[i-1].Value.(i64) {
				bad.Add(1)
			}
		}
	}
	p.Sink(p.CoGroup("check", l, r, func(key int64, left, right []Record, out *Collector) {
		ascending(left)
		ascending(right)
		out.Collect(key, i64(len(left)+len(right)))
	}, SameKey), false)
	outs, err := New(cluster.DAS4(3, 1)).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, rec := range outs[0] {
		total += int64(rec.Value.(i64))
	}
	if total != 10000 {
		t.Fatalf("cogroup saw %d records, want 10000", total)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d records out of partition order within their group", n)
	}
}

func TestOptimizerAvoidsShuffle(t *testing.T) {
	// A SameKey map followed by a reduce must not shuffle; a None map
	// must.
	run := func(ann Annotation) int64 {
		p := NewPlan("opt")
		src := p.Source("in", nums(1000), 0)
		m := p.Map("keep", src, func(in Record, out *Collector) {
			out.Collect(in.Key, in.Value)
		}, ann)
		r := p.Reduce("count", m, func(key int64, in []Record, out *Collector) {
			out.Collect(key, i64(int64(len(in))))
		}, SameKey)
		p.Sink(r, false)
		e := New(hw())
		if _, err := e.Execute(p); err != nil {
			t.Fatal(err)
		}
		return e.Profile.TotalNet()
	}
	withAnn, withoutAnn := run(SameKey), run(None)
	if withAnn != 0 {
		t.Fatalf("SameKey pipeline shuffled %d bytes, want 0", withAnn)
	}
	if withoutAnn == 0 {
		t.Fatal("None pipeline should shuffle")
	}
}

func TestForcedFileChannel(t *testing.T) {
	// The ablation switch: forcing file channels converts shuffles into
	// disk round-trips.
	p := NewPlan("file")
	src := p.Source("in", nums(500), 0)
	m := p.Map("scatter", src, func(in Record, out *Collector) {
		out.Collect(in.Key+1, in.Value) // breaks partitioning
	}, None)
	r := p.Reduce("count", m, func(key int64, in []Record, out *Collector) {
		out.Collect(key, i64(int64(len(in))))
	}, None)
	p.Sink(r, false)

	e := New(hw())
	file := ChannelFile
	e.ChannelForced = &file
	if _, err := e.Execute(p); err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, ph := range e.Profile.Phases {
		if ph.Kind == cluster.PhaseShuffle {
			disk += ph.DiskWrite
		}
	}
	if disk == 0 {
		t.Fatal("file channel should hit disk")
	}
	if e.Profile.TotalNet() != 0 {
		t.Fatal("file channel should not use the network")
	}
}

func TestPlanWithoutSinks(t *testing.T) {
	p := NewPlan("empty")
	p.Source("in", nums(1), 0)
	if _, err := New(hw()).Execute(p); err == nil {
		t.Fatal("want error for sink-less plan")
	}
}

func TestProfileJobCount(t *testing.T) {
	p := NewPlan("p")
	src := p.Source("in", nums(10), 100)
	p.Sink(src, true)
	e := New(hw())
	if _, err := e.Execute(p); err != nil {
		t.Fatal(err)
	}
	jobs := 0
	var read, write int64
	for _, ph := range e.Profile.Phases {
		jobs += ph.Jobs
		read += ph.DiskRead
		write += ph.DiskWrite
	}
	if jobs != 1 {
		t.Fatalf("jobs = %d, want 1 per Execute", jobs)
	}
	if read != 100 {
		t.Fatalf("read = %d", read)
	}
	if write != nums(10).Bytes() {
		t.Fatalf("write = %d", write)
	}
}

func TestMultipleSinksOrder(t *testing.T) {
	p := NewPlan("two")
	a := p.Source("a", Dataset{{1, i64(1)}}, 0)
	b := p.Source("b", Dataset{{2, i64(2)}}, 0)
	p.Sink(a, false)
	p.Sink(b, false)
	outs, err := New(hw()).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0][0].Key != 1 || outs[1][0].Key != 2 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestDeterministicReduce(t *testing.T) {
	run := func() map[int64]int64 {
		p := NewPlan("det")
		src := p.Source("in", nums(997), 0)
		m := p.Map("mod", src, func(in Record, out *Collector) {
			out.Collect(in.Key%13, in.Value)
		}, None)
		r := p.Reduce("count", m, func(key int64, in []Record, out *Collector) {
			out.Collect(key, i64(int64(len(in))))
		}, SameKey)
		p.Sink(r, false)
		outs, err := New(cluster.DAS4(7, 1)).Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]int64{}
		for _, rec := range outs[0] {
			got[rec.Key] = int64(rec.Value.(i64))
		}
		return got
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}
