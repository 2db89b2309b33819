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
// the lookup `graphbench all` and `graphbench findings` use, must
// equal testdata/report_scale40.txt byte for byte, single-threaded and
// at the default GOMAXPROCS. It is the fast stand-in for
// report_full.txt (the same output at full scale, minutes to produce).
// After an intended change of numbers, regenerate with the CLI:
//
//	(go run ./cmd/graphbench -scale 40 all &&
//	 go run ./cmd/graphbench -scale 40 findings) > testdata/report_scale40.txt
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report_scale40.txt")
	if err != nil {
		t.Fatal(err)
	}
	render := func(t *testing.T) {
		h := bench.New(bench.Config{Seed: 42, Scale: 40})
		var got bytes.Buffer
		h.Report(func(panels []bench.Table) {
			for _, p := range panels {
				got.WriteString(p.String())
			}
			got.WriteByte('\n')
		})
		got.WriteString(h.FindingsTable().String())
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("report has %d lines, golden has %d", len(gl), len(wl))
		}
	}
	t.Run("default", render)
	t.Run("gomaxprocs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		render(t)
	})
}
