package algo

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Batched BFS certificate: ValidateBFS for a whole multi-source batch,
// as lane-parallel as the sweep it checks. ValidateBFS walks the graph
// once per lane; here the finished per-lane levels are transposed into
// lane-mask planes,
//
//	at[d][v]    bit l set ⇔ lane l puts v at level d
//	upto[d][v]  bit l set ⇔ lane l puts v at a level in [0, d]
//
// and each ValidateBFS rule becomes one mask operation per arc serving
// every lane that has the arc's tail (or head) at that level:
//
//	in-neighbour  need := at[d][v]; need &^= at[d-1][u] over In(v),
//	              stopping once need is empty; what is left are lanes
//	              whose level-d vertex has nobody one level up.
//	no skip       at[d][u] &^ upto[d+1][v] over Out(u): lanes that reach
//	              u at level d but leave v unreached or deeper than d+1.
//
// A vertex's arcs are walked once per distinct level the lanes give it,
// so the graph is walked about min(depth, lanes) times instead of lanes
// times. The planes are derived only from the results under test — the
// Levels, Visited and Iterations a caller was handed — never from the
// kernel's own frontier or visited planes, so a kernel bug that corrupts
// both cannot certify itself.

// BFSBatchValidator owns the scratch planes of ValidateBFSBatch so a
// long-lived caller (the serving dispatcher) reuses them across batches.
// The zero value is ready; a validator is not safe for concurrent use.
type BFSBatchValidator struct {
	planes []uint64
}

// ValidateBFSBatch checks results[l] as a BFS of g from srcs[l] for
// every lane at once: errs[l] is nil exactly when
// ValidateBFS(g, srcs[l], results[l]) is nil, and a lane that fails
// fails only itself. Unlike ValidateBFS it reports a nil result or an
// out-of-range source as that lane's error instead of panicking.
func ValidateBFSBatch(g *graph.Graph, srcs []graph.VertexID, results []*BFSResult) []error {
	var c BFSBatchValidator
	return c.Validate(g, srcs, results)
}

// Validate is ValidateBFSBatch on the receiver's reusable planes.
func (c *BFSBatchValidator) Validate(g *graph.Graph, srcs []graph.VertexID, results []*BFSResult) []error {
	errs := make([]error, len(srcs))
	if len(results) != len(srcs) {
		err := fmt.Errorf("%d results for %d sources", len(results), len(srcs))
		for l := range errs {
			errs[l] = err
		}
		return errs
	}
	n := g.NumVertices()

	// Rules that need no graph walk, lane by lane. Only lanes that pass
	// take part below, so every level that sizes or indexes a plane has
	// been checked against its lane's Iterations and against V.
	depth := 0
	var live uint64 // lanes still standing; read only below the fork, where lanes fit a word
	for l, r := range results {
		maxLevel, err := checkBFSLane(n, srcs[l], r)
		if errs[l] = err; err == nil {
			depth = max(depth, maxLevel+1)
			live |= 1 << uint(l)
		}
	}

	// The one fork. Past MaxBFSLanes levels (a path graph) the planes
	// would outweigh the trees they certify and a vertex's arcs would be
	// walked once per lane anyway, so the per-lane loop is both smaller
	// and no slower. More sources than one mask word holds go the same
	// way.
	if depth > MaxBFSLanes || len(srcs) > MaxBFSLanes {
		for l := range errs {
			if errs[l] == nil {
				errs[l] = ValidateBFS(g, srcs[l], results[l])
			}
		}
		return errs
	}

	if live == 0 {
		return errs
	}

	if need := 2 * depth * n; cap(c.planes) < need {
		c.planes = make([]uint64, need)
	}
	at := c.planes[:depth*n]
	upto := c.planes[depth*n : 2*depth*n]
	clear(at)
	for m := live; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		bit := uint64(1) << uint(l)
		for v, lv := range results[l].Levels {
			if lv >= 0 {
				at[int(lv)*n+v] |= bit
			}
		}
	}
	copy(upto[:n], at[:n])
	for i := n; i < depth*n; i++ {
		upto[i] = upto[i-n] | at[i]
	}

	var bad uint64
	for d := 1; d < depth; d++ {
		cur, above := at[d*n:(d+1)*n], at[(d-1)*n:d*n]
		for v, need := range cur {
			if need == 0 {
				continue
			}
			for _, u := range g.In(graph.VertexID(v)) {
				if need &^= above[u]; need == 0 {
					break
				}
			}
			bad |= need
		}
	}
	for d := 0; d < depth; d++ {
		cur := at[d*n : (d+1)*n]
		// Past the deepest level "at most one level down" is just
		// "reached": upto's last plane.
		e := min(d+1, depth-1)
		below := upto[e*n : (e+1)*n]
		for u, from := range cur {
			if from == 0 {
				continue
			}
			for _, v := range g.Out(graph.VertexID(u)) {
				bad |= from &^ below[v]
			}
		}
	}

	// Failures are rare: let the per-lane oracle word the error. If it
	// disagrees the lane still fails — the batch verdict never softens.
	for m := bad & live; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if errs[l] = ValidateBFS(g, srcs[l], results[l]); errs[l] == nil {
			errs[l] = fmt.Errorf("batch certificate rejects lane %d (source %d) but ValidateBFS accepts it", l, srcs[l])
		}
	}
	return errs
}

// checkBFSLane applies the ValidateBFS rules that read only the result:
// shape, source at level 0 and alone there, and the Visited and
// Iterations counters. It returns the lane's deepest level, which a
// valid BFS keeps below V (each level down to 0 holds its own vertex).
func checkBFSLane(n int, src graph.VertexID, r *BFSResult) (int, error) {
	if r == nil {
		return 0, errors.New("nil result")
	}
	if len(r.Levels) != n {
		return 0, fmt.Errorf("levels length %d != V %d", len(r.Levels), n)
	}
	if int(src) < 0 || int(src) >= n {
		return 0, fmt.Errorf("source %d out of range [0,%d)", src, n)
	}
	if r.Levels[src] != 0 {
		return 0, fmt.Errorf("source level = %d, want 0", r.Levels[src])
	}
	visited := 0
	maxLevel := int32(0)
	for v, lv := range r.Levels {
		if lv < 0 {
			continue
		}
		visited++
		maxLevel = max(maxLevel, lv)
		if lv == 0 && graph.VertexID(v) != src {
			return 0, fmt.Errorf("vertex %d has level 0 but is not the source", v)
		}
	}
	if visited != r.Visited {
		return 0, fmt.Errorf("Visited = %d, levels say %d", r.Visited, visited)
	}
	if int(maxLevel) != r.Iterations {
		return 0, fmt.Errorf("Iterations = %d, levels say %d", r.Iterations, maxLevel)
	}
	if int(maxLevel) >= n {
		return 0, fmt.Errorf("level %d needs more than V = %d vertices", maxLevel, n)
	}
	return int(maxLevel), nil
}
