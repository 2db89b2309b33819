package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Figure1 reproduces the paper's Figure 1: BFS execution time for all
// datasets on all platforms (20 nodes × 1 core).
func (h *Harness) Figure1() Table {
	t := Table{
		Title:  "Figure 1: BFS execution time, all datasets x all platforms (20 nodes)",
		Header: append([]string{"Dataset"}, PlatformNames()...),
	}
	hw := BaseHW()
	for _, ds := range datagen.Names() {
		row := []string{ds}
		for _, p := range PlatformNames() {
			row = append(row, cell(h.Run(p, platform.BFS, ds, hw)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper key findings: no overall winner, Hadoop worst everywhere; Neo4j values are hot-cache")
	return t
}

// Figure2 reproduces the paper's Figure 2: the EPS and VPS throughput
// of BFS for the distributed platforms.
func (h *Harness) Figure2() (eps, vps Table) {
	names := []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab"}
	eps = Table{
		Title:  "Figure 2 (left): Edges per second of BFS",
		Header: append([]string{"Dataset"}, names...),
	}
	vps = Table{
		Title:  "Figure 2 (right): Vertices per second of BFS",
		Header: append([]string{"Dataset"}, names...),
	}
	hw := BaseHW()
	for _, ds := range datagen.Names() {
		epsRow, vpsRow := []string{ds}, []string{ds}
		for _, p := range names {
			r := h.Run(p, platform.BFS, ds, hw)
			if r.Status != platform.OK {
				epsRow = append(epsRow, r.Status.String())
				vpsRow = append(vpsRow, r.Status.String())
				continue
			}
			epsRow = append(epsRow, fmtFloat(r.EPS()))
			vpsRow = append(vpsRow, fmtFloat(r.VPS()))
		}
		eps.Rows = append(eps.Rows, epsRow)
		vps.Rows = append(vps.Rows, vpsRow)
	}
	eps.Notes = append(eps.Notes,
		"paper: KGS and Citation reach similar EPS on most platforms; GraphLab's Citation EPS ≈ 2x its KGS EPS (undirected edge doubling)")
	return eps, vps
}

// Figure3 reproduces the paper's Figure 3: the execution time of all
// algorithms for all datasets on Giraph, plus CONN on GraphLab as the
// right-most group. The paper plots the six datasets it shows; we
// include Synth as well.
func (h *Harness) Figure3() Table {
	t := Table{
		Title:  "Figure 3: Giraph, all algorithms x all datasets (+ GraphLab CONN)",
		Header: append([]string{"Dataset"}, "STATS", "BFS", "CONN", "CD", "EVO", "SSSP", "CONN(GraphLab)"),
	}
	hw := BaseHW()
	for _, ds := range datagen.Names() {
		row := []string{ds}
		for _, alg := range platform.Algorithms() {
			row = append(row, cell(h.Run("Giraph", alg, ds, hw)))
		}
		row = append(row, cell(h.Run("GraphLab", platform.CONN, ds, hw)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: Giraph stays below ~100 s wherever it completes; it crashes on STATS/WikiTalk and on everything but EVO for Friendster")
	return t
}

// Figure4 reproduces the paper's Figure 4: all platforms running all
// algorithms on DotaLeague, plus CONN on Citation as the right-most
// group.
func (h *Harness) Figure4() Table {
	t := Table{
		Title:  "Figure 4: DotaLeague, all algorithms x all platforms (+ CONN on Citation)",
		Header: append([]string{"Algorithm"}, PlatformNames()...),
	}
	hw := BaseHW()
	for _, alg := range platform.Algorithms() {
		row := []string{alg}
		for _, p := range PlatformNames() {
			row = append(row, cell(h.Run(p, alg, "DotaLeague", hw)))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"CONN(Citation)"}
	for _, p := range PlatformNames() {
		row = append(row, cell(h.Run(p, platform.CONN, "Citation", hw)))
	}
	t.Rows = append(t.Rows, row)
	t.Notes = append(t.Notes,
		"paper: Giraph/Hadoop/YARN crash on STATS; Stratosphere terminated near 4 h; Neo4j STATS and CD exceed 20 h; BFS < CONN < CD on every platform")
	return t
}

// Curves runs BFS on DotaLeague for a platform and returns its
// monitoring trace (the Section 4.2 experiment): the full 100-point
// resource curves Figures 5-10 summarise and `graphbench curves`
// exports as CSV.
func (h *Harness) Curves(p string) monitor.Trace {
	r := h.Run(p, platform.BFS, "DotaLeague", BaseHW())
	pl, _ := platform.ByName(p) // h.Run has panicked on an unknown name
	return monitor.Record(p, platform.SignatureOf(pl), r.Breakdown, r.Iterations)
}

// Figures5to7 reproduces the paper's Figures 5-7: master-node CPU,
// memory, and network during BFS on DotaLeague, summarised as
// mean/max of the 100 normalised points.
func (h *Harness) Figures5to7() Table {
	t := Table{
		Title: "Figures 5-7: master node resource usage (BFS on DotaLeague)",
		Header: []string{"Platform", "CPU mean [%]", "CPU max [%]",
			"Mem mean [GB]", "Net mean [Mbit/s]", "Net max [Mbit/s]"},
	}
	for _, p := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab"} {
		tr := h.Curves(p)
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.2f", monitor.Mean(tr.Master.CPU)),
			fmt.Sprintf("%.2f", monitor.Max(tr.Master.CPU)),
			fmt.Sprintf("%.1f", monitor.Mean(tr.Master.MemGB)),
			fmt.Sprintf("%.2f", monitor.Mean(tr.Master.NetMbps)),
			fmt.Sprintf("%.2f", monitor.Max(tr.Master.NetMbps)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: master nearly idle — CPU < 0.5%, net < 400 Kbit/s (Stratosphere up to ~1 Mbit/s), memory ≈ 8 GB incl. OS and services")
	return t
}

// Figures8to10 reproduces the paper's Figures 8-10: computing-node
// CPU, memory, and network during BFS on DotaLeague.
func (h *Harness) Figures8to10() Table {
	t := Table{
		Title: "Figures 8-10: computing node resource usage (BFS on DotaLeague)",
		Header: []string{"Platform", "CPU mean [%]", "Mem mean [GB]", "Mem max [GB]",
			"Net mean [Mbit/s]", "Net max [Mbit/s]"},
	}
	for _, p := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab"} {
		tr := h.Curves(p)
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.2f", monitor.Mean(tr.Compute.CPU)),
			fmt.Sprintf("%.1f", monitor.Mean(tr.Compute.MemGB)),
			fmt.Sprintf("%.1f", monitor.Max(tr.Compute.MemGB)),
			fmt.Sprintf("%.1f", monitor.Mean(tr.Compute.NetMbps)),
			fmt.Sprintf("%.1f", monitor.Max(tr.Compute.NetMbps)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: Stratosphere pre-allocates ~20 GB and is the heaviest network user; Hadoop/YARN oscillate per iteration; Giraph/GraphLab use far less")
	return t
}

// MeasuredCurves re-runs BFS on DotaLeague for one platform inside a
// dedicated observability session and returns curves interpolated from
// the real process samples — the measured counterpart to the modelled
// Curves. The run bypasses the harness result cache (a cached result
// records nothing) and samples fast so even short runs land enough
// points to interpolate.
func (h *Harness) MeasuredCurves(p string) monitor.Trace {
	sess := obs.NewSession(obs.Options{SampleInterval: 200 * time.Microsecond})
	h.mustExecute(FreshRun{
		Platform: p, Algorithm: platform.BFS, Dataset: "DotaLeague", HW: BaseHW(),
	}, sess, nil)
	sess.Close()
	return monitor.Measured(p, sess.Sampler.Samples())
}

// horizontalPlatforms lists the platforms of Figure 11 per dataset.
func horizontalPlatforms(dataset string) []string {
	ps := []string{"Hadoop", "Stratosphere", "GraphLab", "GraphLab(mp)", "Giraph"}
	if dataset == "DotaLeague" {
		ps = append(ps, "YARN") // the paper's Friendster panel has no YARN
	}
	return ps
}

// HorizontalSizes are the cluster sizes of the horizontal-scalability
// experiment (Section 4.3.1).
func HorizontalSizes() []int { return []int{20, 25, 30, 35, 40, 45, 50} }

// VerticalCores are the per-node core counts of the vertical-
// scalability experiment (Section 4.3.2).
func VerticalCores() []int { return []int{1, 2, 3, 4, 5, 6, 7} }

// capacity renders one panel of the capacity tests (Section 4.3): BFS
// on dataset with the load fixed and one cluster resource varied, one
// row per unit count (hw builds the cluster with that many units) and
// one column per platform; cellOf renders one run.
func (h *Harness) capacity(title, axis, dataset string, units []int, hw func(int) cluster.Hardware,
	cellOf func(*platform.Result, cluster.Hardware) string, notes ...string) Table {
	ps := horizontalPlatforms(dataset)
	t := Table{Title: title, Header: append([]string{axis}, ps...), Notes: notes}
	for _, u := range units {
		row := []string{fmt.Sprintf("%d", u)}
		for _, p := range ps {
			row = append(row, cellOf(h.Run(p, platform.BFS, dataset, hw(u)), hw(u)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func machines(n int) cluster.Hardware { return cluster.DAS4(n, 1) }
func cores(c int) cluster.Hardware    { return cluster.DAS4(20, c) }

func timeCell(r *platform.Result, _ cluster.Hardware) string { return cell(r) }

// nepsCell renders a run as NEPS: its paper-scale edges per second per
// computing unit, over nodes × cores (Table 1).
func nepsCell(r *platform.Result, hw cluster.Hardware) string {
	if r.Status != platform.OK {
		return r.Status.String()
	}
	return fmtFloat(r.EPS() / float64(hw.Workers()))
}

// Figure11 reproduces the paper's Figure 11: horizontal scalability of
// BFS on Friendster and DotaLeague, 20 to 50 machines.
func (h *Harness) Figure11(dataset string) Table {
	return h.capacity(fmt.Sprintf("Figure 11: horizontal scalability of BFS on %s (execution time)", dataset),
		"#machines", dataset, HorizontalSizes(), machines, timeCell,
		"paper: significant scaling only for Friendster; GraphLab flat until the multi-part loader fix (GraphLab(mp))")
}

// Figure12 reproduces the paper's Figure 12: NEPS under horizontal
// scaling.
func (h *Harness) Figure12(dataset string) Table {
	return h.capacity(fmt.Sprintf("Figure 12: NEPS of BFS on %s in horizontal scalability", dataset),
		"#machines", dataset, HorizontalSizes(), machines, nepsCell,
		"paper: the general trend of NEPS is to decrease as machines are added")
}

// Figure13 reproduces the paper's Figure 13: vertical scalability of
// BFS (1 to 7 cores on 20 machines).
func (h *Harness) Figure13(dataset string) Table {
	return h.capacity(fmt.Sprintf("Figure 13: vertical scalability of BFS on %s (execution time)", dataset),
		"#cores", dataset, VerticalCores(), cores, timeCell,
		"paper: gains flatten after ~3 cores; GraphLab(mp) barely gains vertically (one loader per machine); no Giraph/YARN results for Friendster (crash at 20 machines)")
}

// Figure14 reproduces the paper's Figure 14: NEPS under vertical
// scaling (normalised by nodes x cores).
func (h *Harness) Figure14(dataset string) Table {
	return h.capacity(fmt.Sprintf("Figure 14: NEPS of BFS on %s in vertical scalability", dataset),
		"#cores", dataset, VerticalCores(), cores, nepsCell,
		"paper: NEPS drops for all platforms as cores are added")
}

// Figure15 reproduces the paper's Figure 15: the execution time
// breakdown (computation vs overhead) of BFS on DotaLeague for every
// distributed platform.
func (h *Harness) Figure15() Table {
	t := Table{
		Title:  "Figure 15: execution time breakdown, BFS on DotaLeague",
		Header: []string{"Platform", "Computation [s]", "Overhead [s]", "Overhead [%]"},
	}
	for _, p := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "GraphLab(mp)"} {
		t.Rows = append(t.Rows, breakdownRow(p, h.Run(p, platform.BFS, "DotaLeague", BaseHW())))
	}
	t.Notes = append(t.Notes,
		"paper: the overhead fraction varies widely across platforms; GraphLab spends most time loading and finalising")
	return t
}

// breakdownRow is one row of Figures 15-16: Tc, To and the overhead
// share of a run, or its failure class.
func breakdownRow(label string, r *platform.Result) []string {
	if r.Status != platform.OK {
		return []string{label, r.Status.String(), "", ""}
	}
	return []string{
		label,
		fmt.Sprintf("%.1f", r.ComputeSeconds),
		fmt.Sprintf("%.1f", r.OverheadSeconds),
		fmt.Sprintf("%.0f%%", 100*r.OverheadSeconds/r.Seconds),
	}
}

// Figure16 reproduces the paper's Figure 16: the execution time
// breakdown of GraphLab running CONN on each dataset.
func (h *Harness) Figure16() Table {
	t := Table{
		Title:  "Figure 16: GraphLab CONN execution time breakdown per dataset",
		Header: []string{"Dataset", "Computation [s]", "Overhead [s]", "Overhead [%]"},
	}
	// The paper notes GraphLab's CONN on Friendster exceeds an hour and
	// falls outside the figure's scale; we keep the row with its value.
	for _, ds := range datagen.Names() {
		t.Rows = append(t.Rows, breakdownRow(ds, h.Run("GraphLab", platform.CONN, ds, BaseHW())))
	}
	t.Notes = append(t.Notes,
		"paper: most GraphLab time goes to loading the graph and finalising results")
	return t
}
