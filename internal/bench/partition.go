package bench

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/platform"
)

// PartitionQuality renders the static quality metrics of every
// partitioning strategy over one dataset: cut arcs, cut fraction,
// replication factor, and load skew. It needs no platform runs — the
// table is a pure function of the graph and the shard count.
func (h *Harness) PartitionQuality(dataset string, shards int) Table {
	g := h.Graph(dataset)
	t := Table{
		Title: fmt.Sprintf("Partition quality: %s (|V|=%d, |E|=%d), %d shards",
			dataset, g.NumVertices(), g.NumEdges(), shards),
		Header: []string{"Strategy", "Cut arcs", "Cut %", "Repl factor", "Load skew"},
	}
	for _, name := range partition.Names() {
		pt, err := partition.Build(name, g, shards)
		if err != nil {
			panic(err)
		}
		st := pt.ComputeStats(g)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", st.CutArcs),
			fmt.Sprintf("%.1f%%", 100*st.CutFraction),
			fmt.Sprintf("%.2f", st.ReplicationFactor),
			fmt.Sprintf("%.2f", st.LoadSkew),
		})
	}
	t.Notes = append(t.Notes,
		"cut arcs = stored arcs whose endpoints live on different shards (owner-based for every family)",
		"repl factor = avg copies per vertex (mirrors for vertex cuts, master+ghosts for edge cuts)",
		"load skew = busiest shard's weighted load over the mean (1.00 = perfectly balanced)")
	return t
}

// PartitionStudy reproduces the partitioning-strategy experiment shape
// of Ammar & Özsu's evaluation (strategy x platform x dataset): BFS on
// the two graph-specific platforms over three datasets under each of
// the five strategies, reporting the static quality metrics next to
// the dynamic cost they induce (network traffic, T, EPS). The same
// seed always yields the identical table.
func (h *Harness) PartitionStudy(shards int) Table {
	if shards <= 0 {
		shards = 8
	}
	hw := BaseHW()
	datasets := []string{"Amazon", "KGS", "DotaLeague"}
	platforms := []string{"Giraph", "GraphLab"}
	t := Table{
		Title: fmt.Sprintf("Partitioning strategy study: BFS, %d shards on %d nodes",
			shards, hw.Nodes),
		Header: []string{"Platform", "Dataset", "Strategy", "Cut %", "Repl", "Net MB", "T", "EPS"},
	}
	// Per platform+dataset: network traffic under hash vs edge cut, for
	// the delta notes.
	type cellKey struct{ p, d, s string }
	netBy := map[cellKey]float64{}
	for _, pl := range platforms {
		for _, ds := range datasets {
			g := h.Graph(ds)
			for _, strat := range partition.Names() {
				pt, err := partition.Build(strat, g, shards)
				if err != nil {
					panic(err)
				}
				st := pt.ComputeStats(g)
				r := h.runPlaced(pl, platform.BFS, ds, hw, strat, shards)
				netMB := float64(r.Profile.TotalNet()) / (1 << 20)
				netBy[cellKey{pl, ds, strat}] = netMB
				t.Rows = append(t.Rows, []string{
					pl, ds, strat,
					fmt.Sprintf("%.1f%%", 100*st.CutFraction),
					fmt.Sprintf("%.2f", st.ReplicationFactor),
					fmt.Sprintf("%.1f", netMB),
					cell(r),
					fmtFloat(r.EPS()),
				})
			}
		}
	}
	for _, pl := range platforms {
		for _, ds := range datasets {
			hashNet := netBy[cellKey{pl, ds, partition.Hash}]
			cutNet := netBy[cellKey{pl, ds, partition.EdgeCut}]
			if hashNet > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s/%s: edge cut moves %.1f MB vs hash %.1f MB (%+.0f%%)",
					pl, ds, cutNet, hashNet, 100*(cutNet-hashNet)/hashNet))
			}
		}
	}
	t.Notes = append(t.Notes,
		"network volume follows the static cut metrics: fewer cut arcs (edge cuts) or fewer mirrors (vertex cuts) mean fewer remote sends")
	return t
}
