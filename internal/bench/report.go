package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// artifact is one numbered table or figure of the paper's evaluation:
// the ids it answers to (the first is the canonical one) and its
// generator. Figures 11-14 are per dataset; every other generator
// ignores the dataset argument.
type artifact struct {
	ids    []string
	render func(h *Harness, dataset string) []Table
}

func fixed(f func(*Harness) Table) func(*Harness, string) []Table {
	return func(h *Harness, _ string) []Table { return []Table{f(h)} }
}

func perDataset(f func(*Harness, string) Table) func(*Harness, string) []Table {
	return func(h *Harness, ds string) []Table { return []Table{f(h, ds)} }
}

var tables = []artifact{
	{[]string{"2"}, fixed((*Harness).Table2)},
	{[]string{"3"}, fixed((*Harness).Table3)},
	{[]string{"4"}, fixed((*Harness).Table4)},
	{[]string{"5"}, fixed((*Harness).Table5)},
	{[]string{"6"}, fixed((*Harness).Table6)},
	{[]string{"7"}, fixed((*Harness).Table7)},
	{[]string{"8"}, fixed((*Harness).Table8)},
}

var figures = []artifact{
	{[]string{"1"}, fixed((*Harness).Figure1)},
	{[]string{"2"}, func(h *Harness, _ string) []Table {
		eps, vps := h.Figure2()
		return []Table{eps, vps}
	}},
	{[]string{"3"}, fixed((*Harness).Figure3)},
	{[]string{"4"}, fixed((*Harness).Figure4)},
	{[]string{"5-7", "5", "6", "7"}, fixed((*Harness).Figures5to7)},
	{[]string{"8-10", "8", "9", "10"}, fixed((*Harness).Figures8to10)},
	{[]string{"11"}, perDataset((*Harness).Figure11)},
	{[]string{"12"}, perDataset((*Harness).Figure12)},
	{[]string{"13"}, perDataset((*Harness).Figure13)},
	{[]string{"14"}, perDataset((*Harness).Figure14)},
	{[]string{"15"}, fixed((*Harness).Figure15)},
	{[]string{"16"}, fixed((*Harness).Figure16)},
}

func lookup(kind string, list []artifact, id string) (artifact, error) {
	var have []string
	for _, a := range list {
		if slices.Contains(a.ids, id) {
			return a, nil
		}
		have = append(have, a.ids[0])
	}
	return artifact{}, fmt.Errorf("unknown %s %q (have %s)", kind, id, strings.Join(have, " "))
}

// RenderTable generates the paper's Table id ("2".."8").
func (h *Harness) RenderTable(id string) ([]Table, error) {
	a, err := lookup("table", tables, id)
	if err != nil {
		return nil, err
	}
	return a.render(h, ""), nil
}

// RenderFigure generates the paper's Figure id ("1".."16", "5-7",
// "8-10"); dataset selects the panel of Figures 11-14.
func (h *Harness) RenderFigure(id, dataset string) ([]Table, error) {
	a, err := lookup("figure", figures, id)
	if err != nil {
		return nil, err
	}
	return a.render(h, dataset), nil
}

// Report writes the whole evaluation in the order of the archived
// report (report_full.txt) — Tables 2-8, the DotaLeague figures, the
// scalability figures for Friendster and DotaLeague, then the
// key-findings table — rendering each table's or figure's panels with
// render as soon as they are ready and a blank line after each. The
// findings reuse the cells the tables and figures already ran.
func (h *Harness) Report(w io.Writer, render func(Table) string) {
	emit := func(panels []Table) {
		for _, p := range panels {
			io.WriteString(w, render(p))
		}
		io.WriteString(w, "\n")
	}
	for _, a := range tables {
		emit(a.render(h, ""))
	}
	figure := func(id, dataset string) {
		ts, err := h.RenderFigure(id, dataset)
		if err != nil {
			panic(err) // the ids below are fixed
		}
		emit(ts)
	}
	for _, id := range []string{"1", "2", "3", "4", "5-7", "8-10", "15", "16"} {
		figure(id, "DotaLeague")
	}
	for _, ds := range []string{"Friendster", "DotaLeague"} {
		for _, id := range []string{"11", "12", "13", "14"} {
			figure(id, ds)
		}
	}
	io.WriteString(w, render(h.FindingsTable()))
}
