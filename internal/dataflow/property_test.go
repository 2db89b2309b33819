package dataflow

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/partition"
)

func TestQuickPartitionFlattenConserves(t *testing.T) {
	f := func(seed int64, rawN uint16, par uint8) bool {
		n := int(rawN) % 400
		p := int(par)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		var d partition.Dataset[i64]
		for i := 0; i < n; i++ {
			d = append(d, partition.Record[i64]{Key: int64(rng.Intn(100)), Value: i64(1)})
		}
		parts := partition.SplitByOwner(nil, p, func(r partition.Record[i64]) int { return int(uint64(r.Key) % uint64(p)) }, d)
		if len(parts) != p {
			return false
		}
		// Keys land in their hash partition, and nothing is lost.
		total := 0
		for pi, part := range parts {
			total += len(part)
			for _, r := range part {
				if int(uint64(r.Key)%uint64(p)) != pi {
					return false
				}
			}
		}
		return total == n && len(slices.Concat(parts...)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoGroupJoinEqualsNestedLoopJoin(t *testing.T) {
	f := func(seed int64, rawL, rawR uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var left, right partition.Dataset[i64]
		for i := 0; i < int(rawL)%40; i++ {
			left = append(left, partition.Record[i64]{Key: int64(rng.Intn(10)), Value: i64(rng.Intn(100))})
		}
		for i := 0; i < int(rawR)%40; i++ {
			right = append(right, partition.Record[i64]{Key: int64(rng.Intn(10)), Value: i64(rng.Intn(100))})
		}
		// Reference: nested loops.
		want := 0
		var wantSum int64
		for _, l := range left {
			for _, r := range right {
				if l.Key == r.Key {
					want++
					wantSum += int64(l.Value) + int64(r.Value)
				}
			}
		}
		p := NewPlan[i64]("join")
		lsrc := p.Source("l", left, 0)
		rsrc := p.Source("r", right, 0)
		j := p.CoGroup("j", lsrc, rsrc, innerJoin, None)
		p.Sink(j, false)
		outs, err := Execute(New(cluster.DAS4(3, 1)), p)
		if err != nil {
			return false
		}
		got := 0
		var gotSum int64
		for _, r := range outs[0] {
			got++
			gotSum += int64(r.Value)
		}
		return got == want && gotSum == wantSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupApplyCoversEveryKeyOnce(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var d partition.Dataset[i64]
		keys := map[int64]int{}
		for i := 0; i < int(rawN)%100; i++ {
			k := int64(rng.Intn(12))
			keys[k]++
			d = append(d, partition.Record[i64]{Key: k, Value: i64(1)})
		}
		seen := map[int64]int{}
		groupApply(new(partition.Spare[partition.Record[i64]]), d, func(key int64, group []partition.Record[i64]) {
			seen[key] += len(group)
		})
		if len(seen) != len(keys) {
			return false
		}
		for k, n := range keys {
			if seen[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorCharge(t *testing.T) {
	p := NewPlan[i64]("charge")
	src := p.Source("in", nums(10), 0)
	m := p.Map("charged", src, func(in partition.Record[i64], out *Collector[i64]) {
		out.Charge(100)
		out.Collect(in.Key, in.Value)
	}, None)
	p.Sink(m, false)
	e := New(cluster.DAS4(2, 1))
	if _, err := Execute(e, p); err != nil {
		t.Fatal(err)
	}
	if got := e.Profile.TotalOps(); got < 10*100 {
		t.Fatalf("charged ops missing: %d", got)
	}
}
