package pregel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// str is a message that carries text, its length its modelled size.
type str string

func (m str) Size() int64 { return int64(len(m)) }

// TestInboxOrder pins the delivery order of the flat inboxes: a
// vertex's messages arrive by source shard, then in the order the
// source shard's worker sent them, and a combined inbox holds the left
// fold of that sequence. Every vertex sends a message naming itself,
// the round and the edge along each out-edge, twice over, so each
// inbox sees several senders and several messages per sender; the
// combiner is string concatenation, associative but not commutative,
// so any reordering shows. Placements cover contiguous (range) and
// clustered (edgecut) shards, with as many shards as nodes and with
// more shards than nodes.
func TestInboxOrder(t *testing.T) {
	g := randomGraph(3, 60, 400)
	for _, tc := range []struct {
		strategy     string
		shards, node int
	}{
		{partition.Range, 3, 3},
		{partition.EdgeCut, 4, 4},
		{partition.Range, 7, 2},
		{partition.EdgeCut, 6, 4},
	} {
		part, err := partition.Build(tc.strategy, g, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s-%dshards-%dnodes", tc.strategy, tc.shards, tc.node)

		// The expected inboxes: source shards in order, each worker
		// computing its members in order and sending as the program does.
		want := make([][]str, g.NumVertices())
		for _, members := range part.Members {
			for _, u := range members {
				for round := 0; round < 2; round++ {
					for j, dst := range g.Out(u) {
						want[dst] = append(want[dst], str(fmt.Sprintf("%d.%d.%d;", u, round, j)))
					}
				}
			}
		}

		for _, combine := range []func(*str, str){nil, func(dst *str, m str) { *dst += m }} {
			got := make([][]str, g.NumVertices())
			cfg := Config[i64, str]{
				MaxSupersteps: 2,
				Combine:       combine,
				Program: func(ctx *Context[i64, str], msgs []str) {
					if ctx.Superstep() == 0 {
						for round := 0; round < 2; round++ {
							for j, dst := range ctx.Out() {
								ctx.Send(dst, str(fmt.Sprintf("%d.%d.%d;", ctx.ID(), round, j)))
							}
						}
					} else {
						got[ctx.ID()] = slices.Clone(msgs)
					}
					ctx.VoteToHalt()
				},
			}
			profile := &cluster.ExecutionProfile{Part: part}
			if _, err := Run(g, cluster.DAS4(tc.node, 1), cfg, profile); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v := range want {
				exp := want[v]
				if combine != nil && len(exp) > 0 {
					var fold str
					for _, m := range exp {
						fold += m
					}
					exp = []str{fold}
				}
				if !slices.Equal(got[v], exp) {
					t.Fatalf("%s, combined=%v: vertex %d received\n  %q\nwant\n  %q", name, combine != nil, v, got[v], exp)
				}
			}
		}
	}
}
