package graphbench

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// TestReportGolden holds the whole evaluation fixed: every table and
// figure plus the key-findings table at -scale 40, rendered through
// bench.Harness.Report as `graphbench all` renders it, must equal
// testdata/report_scale40.txt byte for byte, single-threaded and at
// the default GOMAXPROCS. It is the fast stand-in for report_full.txt
// (the same output at full scale, minutes to produce). After an
// intended change of numbers, regenerate with the CLI:
//
//	go run ./cmd/graphbench -scale 40 all > testdata/report_scale40.txt
func TestReportGolden(t *testing.T) {
	render := func(t *testing.T) {
		h := bench.New(bench.Config{Seed: 42, Scale: 40})
		var got bytes.Buffer
		h.Report(&got, bench.Table.String)
		requireGolden(t, "testdata/report_scale40.txt", got.Bytes())
	}
	t.Run("default", render)
	t.Run("gomaxprocs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		render(t)
	})
}

// requireGolden fails t at the first line where got differs from the
// compare-only golden file. The test never rewrites the file.
func requireGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, golden has %d", path, len(gl), len(wl))
}
