// Package metrics implements the performance metrics of the paper's
// Table 1: Edges Per Second (EPS — "a straightforward extension of the
// TEPS metric used by Graph500"), its per-computing-unit normalised
// variant NEPS, and the descriptive statistics used for reporting
// repeated runs (stats.go). VPS is platform.Result's; the NVPS panels
// are not reproduced (each cell would be its NEPS cell times the
// dataset's constant paper V/E).
package metrics

// EPS returns edges per second: #E / T.
func EPS(edges int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(edges) / seconds
}

// NEPS returns EPS normalised by computing units: #E/T/N for
// horizontal scalability (nodes) or #E/T/N/C for vertical scalability
// (cores per node). Pass cores=1 for the node-normalised variant.
func NEPS(edges int64, seconds float64, nodes, cores int) float64 {
	units := nodes * cores
	if units <= 0 {
		return 0
	}
	return EPS(edges, seconds) / float64(units)
}
