package pregel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
)

func randomGraph(seed int64, n, e int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	for i := 0; i < e; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

func TestQuickMessageAccounting(t *testing.T) {
	// TotalMsgBytes = TotalMessages * (payload + envelope) when every
	// message has the same size; NetBytes <= TotalMsgBytes.
	f := func(seed int64, rawN uint8, rawE uint16, nodes uint8) bool {
		n := int(rawN)%40 + 2
		e := int(rawE) % 150
		g := randomGraph(seed, n, e)
		hw := cluster.DAS4(int(nodes)%6+1, 1)
		cfg := Config[i64, i64]{
			MaxSupersteps: 3,
			Program: func(ctx *Context[i64, i64], msgs []i64) {
				if ctx.Superstep() < 2 {
					ctx.SendToNeighbors(i64(1))
				}
				ctx.VoteToHalt()
			},
		}
		res, err := Run(g, hw, cfg, nil)
		if err != nil {
			return false
		}
		want := res.Stats.TotalMessages * (8 + 16)
		return res.Stats.TotalMsgBytes == want && res.Stats.NetBytes <= res.Stats.TotalMsgBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleNodeNeverNetworks(t *testing.T) {
	f := func(seed int64, rawN uint8, rawE uint16) bool {
		n := int(rawN)%30 + 2
		e := int(rawE) % 100
		g := randomGraph(seed, n, e)
		cfg := Config[i64, i64]{
			MaxSupersteps: 2,
			Program: func(ctx *Context[i64, i64], msgs []i64) {
				ctx.SendToNeighbors(i64(1))
				ctx.VoteToHalt()
			},
		}
		res, err := Run(g, cluster.DAS4(1, 1), cfg, nil)
		return err == nil && res.Stats.NetBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSendLimitAborts(t *testing.T) {
	g := randomGraph(7, 40, 200)
	cfg := Config[i64, i64]{
		MaxSupersteps:    3,
		SendLimitPerNode: 16, // tiny: the first superstep blows it
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			ctx.SendToNeighbors(i64(1))
			ctx.VoteToHalt()
		},
	}
	_, err := Run(g, cluster.DAS4(4, 1), cfg, nil)
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	// The message must tell the two figures apart even when both are
	// far below 1 MB (every down-scaled run).
	var step int
	var sent, budget int64
	if _, serr := fmt.Sscanf(err.Error(), "pregel: superstep %d send buffer %d bytes exceeds per-node budget %d bytes",
		&step, &sent, &budget); serr != nil || budget != 16 || sent <= budget {
		t.Fatalf("message %q: parsed sent=%d budget=%d (%v)", err, sent, budget, serr)
	}
}

func TestSendLimitGenerousDoesNotAbort(t *testing.T) {
	g := randomGraph(7, 40, 200)
	cfg := Config[i64, i64]{
		MaxSupersteps:    2,
		SendLimitPerNode: 1 << 40,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			ctx.SendToNeighbors(i64(1))
			ctx.VoteToHalt()
		},
	}
	if _, err := Run(g, cluster.DAS4(4, 1), cfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeAddsOps(t *testing.T) {
	g := randomGraph(7, 10, 20)
	run := func(charge int64) int64 {
		profile := &cluster.ExecutionProfile{}
		cfg := Config[i64, i64]{
			MaxSupersteps: 1,
			Program: func(ctx *Context[i64, i64], msgs []i64) {
				ctx.Charge(charge)
				ctx.VoteToHalt()
			},
		}
		if _, err := Run(g, cluster.DAS4(2, 1), cfg, profile); err != nil {
			t.Fatal(err)
		}
		return profile.TotalOps()
	}
	if base, charged := run(0), run(500); charged < base+10*500 {
		t.Fatalf("Charge not accounted: %d vs %d", base, charged)
	}
}

func TestPeakSendBytesRecorded(t *testing.T) {
	g := randomGraph(7, 20, 60)
	cfg := Config[i64, i64]{
		MaxSupersteps: 2,
		Program: func(ctx *Context[i64, i64], msgs []i64) {
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(i64(1))
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, cluster.DAS4(3, 1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakSendBytes <= 0 {
		t.Fatal("PeakSendBytes not recorded")
	}
	if res.Stats.PeakSendBytes > res.Stats.TotalMsgBytes {
		t.Fatal("per-node peak cannot exceed the total")
	}
}
