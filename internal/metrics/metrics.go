// Package metrics implements the performance metrics of the paper's
// Table 1: job execution time T, Edges/Vertices Per Second (EPS/VPS —
// "a straightforward extension of the TEPS metric used by Graph500"),
// their per-computing-unit normalised variants (NEPS/NVPS), and the
// descriptive statistics used for reporting repeated runs (stats.go).
package metrics

// EPS returns edges per second: #E / T.
func EPS(edges int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(edges) / seconds
}

// VPS returns vertices per second: #V / T.
func VPS(vertices int64, seconds float64) float64 { return EPS(vertices, seconds) }

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

// NVPS is the vertex-centric equivalent of NEPS.
func NVPS(vertices int64, seconds float64, nodes, cores int) float64 {
	return NEPS(vertices, seconds, nodes, cores)
}
