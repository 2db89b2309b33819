package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// quick returns a harness at a heavily reduced scale so the full
// table/figure generators run in test time.
func quick() *Harness {
	return New(Config{Seed: 42, Scale: 40})
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	s := tb.String()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		5.0:    "5.0 s",
		150:    "150 s",
		7200:   "2.0 h",
		360000: "100.0 h",
	}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Fatalf("fmtSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2500000: "2.50M",
		1500:    "1.5k",
		42:      "42",
		1.5:     "1.50",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Fatalf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestStaticTables(t *testing.T) {
	h := quick()
	if got := len(h.Table3().Rows); got != 7 {
		t.Fatalf("Table3 rows = %d", got)
	}
	t4 := h.Table4()
	if len(t4.Rows) != 6 {
		t.Fatalf("Table4 rows = %d", len(t4.Rows))
	}
	if t4.Rows[0][0] != "Hadoop" || t4.Rows[5][0] != "Neo4j" {
		t.Fatalf("Table4 order wrong: %v", t4.Rows)
	}
	if got := len(h.Table7().Rows); got != 2 {
		t.Fatalf("Table7 rows = %d", got)
	}
	if got := len(h.Table8().Rows); got != 11 {
		t.Fatalf("Table8 rows = %d", got)
	}
}

func TestTable2Shape(t *testing.T) {
	h := quick()
	tb := h.Table2()
	if len(tb.Rows) != 7 {
		t.Fatalf("Table2 rows = %d, want 7 datasets", len(tb.Rows))
	}
	if tb.Rows[0][0] != "Amazon" || tb.Rows[6][0] != "Friendster" {
		t.Fatalf("Table2 order: %v", tb.Rows)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("row width mismatch: %v", row)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tb := quick().Table5()
	if len(tb.Rows) != 7 {
		t.Fatalf("Table5 rows = %d", len(tb.Rows))
	}
}

func TestTable6IngestionShape(t *testing.T) {
	tb := quick().Table6()
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	// Friendster Neo4j must be N/A even at reduced scale (projection
	// restores paper dimensions).
	if byName["Friendster"][2] != "N/A" {
		t.Fatalf("Friendster Neo4j ingest = %q, want N/A", byName["Friendster"][2])
	}
}

func TestRunCachesResults(t *testing.T) {
	h := quick()
	if h.Graph("Amazon") != h.Graph("Amazon") {
		t.Fatal("Graph should cache and return the same graph")
	}
	a := h.Run("Giraph", platform.BFS, "Amazon", BaseHW())
	b := h.Run("Giraph", platform.BFS, "Amazon", BaseHW())
	if a != b {
		t.Fatal("Run should cache and return the same result pointer")
	}
	c := h.Run("Giraph", platform.BFS, "Amazon", cluster.DAS4(25, 1))
	if a == c {
		t.Fatal("different hardware must not share cache entries")
	}
}

func TestFigure1Shape(t *testing.T) {
	h := quick()
	tb := h.Figure1()
	if len(tb.Rows) != 7 || len(tb.Header) != 7 {
		t.Fatalf("Figure1 %dx%d", len(tb.Rows), len(tb.Header))
	}
	// Hadoop never beats Giraph on any dataset where both complete
	// ("Hadoop is the worst performer in all cases").
	for _, ds := range []string{"Amazon", "DotaLeague"} {
		hR := h.Run("Hadoop", platform.BFS, ds, BaseHW())
		gR := h.Run("Giraph", platform.BFS, ds, BaseHW())
		if hR.Status == platform.OK && gR.Status == platform.OK && hR.Seconds < gR.Seconds {
			t.Fatalf("%s: Hadoop (%.0fs) beat Giraph (%.0fs)", ds, hR.Seconds, gR.Seconds)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	eps, vps := quick().Figure2()
	if len(eps.Rows) != 7 || len(vps.Rows) != 7 {
		t.Fatalf("Figure2 rows: %d, %d", len(eps.Rows), len(vps.Rows))
	}
}

func TestFigure4IncludesCitationConn(t *testing.T) {
	tb := quick().Figure4()
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "CONN(Citation)" {
		t.Fatalf("last row = %v", last)
	}
	if len(tb.Rows) != 7 { // 5 algorithms + SSSP + CONN(Citation)
		t.Fatalf("Figure4 rows = %d", len(tb.Rows))
	}
}

func TestFiguresResourceUsage(t *testing.T) {
	h := quick()
	master := h.Figures5to7()
	if len(master.Rows) != 5 {
		t.Fatalf("Figures5to7 rows = %d", len(master.Rows))
	}
	compute := h.Figures8to10()
	if len(compute.Rows) != 5 {
		t.Fatalf("Figures8to10 rows = %d", len(compute.Rows))
	}
}

func TestFigure11And13Shapes(t *testing.T) {
	h := quick()
	for _, ds := range []string{"DotaLeague", "Friendster"} {
		f11 := h.Figure11(ds)
		if len(f11.Rows) != len(HorizontalSizes()) {
			t.Fatalf("Figure11 rows = %d", len(f11.Rows))
		}
		f13 := h.Figure13(ds)
		if len(f13.Rows) != len(VerticalCores()) {
			t.Fatalf("Figure13 rows = %d", len(f13.Rows))
		}
	}
}

func TestFigure12And14Shapes(t *testing.T) {
	h := quick()
	f12 := h.Figure12("DotaLeague")
	if len(f12.Rows) != len(HorizontalSizes()) {
		t.Fatalf("Figure12 rows = %d", len(f12.Rows))
	}
	f14 := h.Figure14("DotaLeague")
	if len(f14.Rows) != len(VerticalCores()) {
		t.Fatalf("Figure14 rows = %d", len(f14.Rows))
	}
}

func TestFigure15And16Shapes(t *testing.T) {
	h := quick()
	f15 := h.Figure15()
	if len(f15.Rows) != 6 {
		t.Fatalf("Figure15 rows = %d", len(f15.Rows))
	}
	f16 := h.Figure16()
	if len(f16.Rows) != 7 {
		t.Fatalf("Figure16 rows = %d", len(f16.Rows))
	}
}

func TestHorizontalScalingHelpsFriendster(t *testing.T) {
	// Paper: "Most of the platforms present significant horizontal
	// scalability only for Friendster". Hadoop at 50 nodes must beat
	// Hadoop at 20 nodes on the largest graph.
	h := quick()
	t20 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	t50 := h.Run("Hadoop", platform.BFS, "Friendster", cluster.DAS4(50, 1))
	if t20.Status != platform.OK || t50.Status != platform.OK {
		t.Skip("Hadoop did not complete at this scale")
	}
	if t50.Seconds >= t20.Seconds {
		t.Fatalf("no horizontal scaling: %.0fs at 20 vs %.0fs at 50", t20.Seconds, t50.Seconds)
	}
}

func TestGraphLabMPBeatsSingleLoader(t *testing.T) {
	h := quick()
	sp := h.Run("GraphLab", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	mp := h.Run("GraphLab(mp)", platform.BFS, "Friendster", cluster.DAS4(20, 1))
	if sp.Status != platform.OK || mp.Status != platform.OK {
		t.Skip("GraphLab did not complete at this scale")
	}
	if mp.Seconds >= sp.Seconds {
		t.Fatalf("GraphLab(mp) %.0fs should beat GraphLab %.0fs", mp.Seconds, sp.Seconds)
	}
}

func TestKeyFindingsAllHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scalability sweeps; skipped under -short")
	}
	h := quick()
	for _, f := range h.KeyFindings() {
		if !f.Holds {
			t.Errorf("%s does not hold: %s (%s)", f.ID, f.Claim, f.Evidence)
		}
	}
}

func TestFindingsTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scalability sweeps; skipped under -short")
	}
	tb := quick().FindingsTable()
	if len(tb.Rows) != 10 {
		t.Fatalf("findings = %d, want 10", len(tb.Rows))
	}
}

func TestCSVExport(t *testing.T) {
	tb := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", `say "hi"`}},
	}
	got := CSV(tb)
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestNVPSFigureVariants(t *testing.T) {
	h := quick()
	f12 := h.Figure12NVPS("DotaLeague")
	if len(f12.Rows) != len(HorizontalSizes()) {
		t.Fatalf("Figure12NVPS rows = %d", len(f12.Rows))
	}
	f14 := h.Figure14NVPS("DotaLeague")
	if len(f14.Rows) != len(VerticalCores()) {
		t.Fatalf("Figure14NVPS rows = %d", len(f14.Rows))
	}
}

func TestRenderByID(t *testing.T) {
	h := quick()
	if ts, err := h.RenderTable("3"); err != nil || len(ts) != 1 || len(ts[0].Rows) != 7 {
		t.Fatalf("RenderTable(3) = %v, %v", ts, err)
	}
	// Figure 2 is two panels; "6" is an alias of the 5-7 group.
	if ts, err := h.RenderFigure("2", ""); err != nil || len(ts) != 2 {
		t.Fatalf("RenderFigure(2) = %d tables, %v", len(ts), err)
	}
	if ts, err := h.RenderFigure("6", ""); err != nil || !strings.HasPrefix(ts[0].Title, "Figures 5-7") {
		t.Fatalf("RenderFigure(6) = %v, %v", ts, err)
	}
	// Unknown ids fail with the list of valid ones.
	if _, err := h.RenderTable("9"); err == nil || !strings.Contains(err.Error(), "2 3 4 5 6 7 8") {
		t.Fatalf("RenderTable(9) error = %v", err)
	}
	if _, err := h.RenderFigure("17", ""); err == nil || !strings.Contains(err.Error(), "5-7 8-10 11") {
		t.Fatalf("RenderFigure(17) error = %v", err)
	}
}
