package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryOwnsEveryCommittedEntry holds the suites and the
// committed BENCH_pr*.json files to each other in both directions —
// constructing the suites, measuring nothing. Every committed row is
// built by exactly the suite that records into its file, so a renamed
// or dropped entry fails here; every suite entry has a committed row,
// so an entry nobody recorded (or a retired row whose code stayed)
// fails too.
func TestRegistryOwnsEveryCommittedEntry(t *testing.T) {
	owners := map[string][]string{}
	suites := map[string]bool{}
	for _, s := range Registry {
		if suites[s.Name] {
			t.Errorf("suite name %q is registered twice", s.Name)
		}
		suites[s.Name] = true
		for _, bm := range s.Build() {
			owners[bm.Name] = append(owners[bm.Name], s.Name)
		}
	}
	for name, in := range owners {
		if len(in) != 1 {
			t.Errorf("entry %q is built by suites %v, want exactly one", name, in)
		}
	}

	files, err := filepath.Glob("../../BENCH_pr*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baselines found: %v", err)
	}
	committed := map[string]bool{}
	for _, path := range files {
		bl, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		var file SuiteSpec
		for _, s := range Registry {
			if s.File == filepath.Base(path) {
				file = s
			}
		}
		if file.Name == "" {
			t.Errorf("%s: no registered suite records into this file", path)
			continue
		}
		if bl.Description != file.Description || bl.Scale != file.Scale {
			t.Errorf("%s: committed description/scale differ from suite %q", path, file.Name)
		}
		for name, rec := range bl.Benchmarks {
			if in := owners[name]; len(in) != 1 || in[0] != file.Name {
				t.Errorf("%s: entry %q is built by %v, want [%s]", path, name, in, file.Name)
			}
			if reference(rec) == nil {
				t.Errorf("%s: entry %q has no committed measurement", path, name)
			}
			committed[name] = true
		}
	}
	for name, in := range owners {
		if !committed[name] {
			t.Errorf("suite %v builds %q, which no BENCH_pr*.json records", in, name)
		}
	}
}

func TestSuiteByNameUnknownListsValid(t *testing.T) {
	_, err := SuiteByName("bogus")
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, s := range Registry {
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("error %q does not list suite %q", err, s.Name)
		}
	}
}
