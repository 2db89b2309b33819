package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// BenchmarkAvgLCC times the STATS reference on the graphs the claim
// benchmark and the report validate against: KGS at two scales (dense,
// undirected), Amazon (directed, few triangles, so the union build
// dominates) and DotaLeague (the densest). Datasets are generated with
// seed 42.
func BenchmarkAvgLCC(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"KGS", 16}, {"KGS", 8}, {"Amazon", 2}, {"DotaLeague", 8}} {
		p, err := datagen.ByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		g := p.GenerateScaled(c.scale, 42)
		b.Run(fmt.Sprintf("%s@%d", c.name, c.scale), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += g.AvgLCC()
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
