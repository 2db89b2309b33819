// Package algo defines the paper's five benchmark algorithms (Section
// 2.2.2) — STATS, BFS, CONN, CD, and EVO — as shared parameter and
// result types plus sequential reference implementations. The
// platform-specific implementations live in the sibling packages
// mralgo (Hadoop/YARN), pactalgo (Stratosphere), pregelalgo (Giraph),
// gasalgo (GraphLab), and dbalgo (Neo4j); every one of them is
// validated against the references here.
package algo

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Params carries the algorithm parameters of Section 3.2 of the paper.
type Params struct {
	// Seed drives every randomised choice (source selection, forest
	// fire burns); identical seeds give identical results on every
	// platform.
	Seed int64

	// BFSSource is the traversal source ("we randomly pick a vertex to
	// be the source for each graph").
	BFSSource graph.VertexID

	// CDInitialScore is the initial label score (paper: 1.0).
	CDInitialScore float64
	// CDHopAttenuation is the score decay per hop (paper: 0.1).
	CDHopAttenuation float64
	// CDMaxIterations bounds community detection (paper: 5 — "after 5
	// iterations ... 95% of vertices are clustered").
	CDMaxIterations int

	// EVOGrowth is the per-run vertex growth fraction (paper: 0.1%).
	EVOGrowth float64
	// EVOIterations is the number of evolution iterations (paper: 6).
	EVOIterations int
	// EVOForwardProb and EVOBackwardProb are the forward and backward
	// burning probabilities of the Forest Fire model (paper: 0.5 both).
	EVOForwardProb, EVOBackwardProb float64
}

// DefaultParams returns the paper's parameter configuration.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:             seed,
		CDInitialScore:   1.0,
		CDHopAttenuation: 0.1,
		CDMaxIterations:  5,
		EVOGrowth:        0.001,
		EVOIterations:    6,
		EVOForwardProb:   0.5,
		EVOBackwardProb:  0.5,
	}
}

// PickSource returns a deterministic pseudo-random BFS source for a
// graph, given the seed.
func PickSource(g *graph.Graph, seed int64) graph.VertexID {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return graph.VertexID(hash64(uint64(seed)) % uint64(n))
}

// StatsResult is STATS output: vertex count, edge count, mean local
// clustering coefficient.
type StatsResult struct {
	Vertices int64
	Edges    int64
	AvgLCC   float64
}

// BFSResult is BFS output.
type BFSResult struct {
	// Levels[v] is the BFS depth of v, -1 if unreached.
	Levels []int32
	// Visited counts reached vertices.
	Visited int
	// Iterations is the number of frontier expansions.
	Iterations int
}

// BFSOf makes the BFSResult of per-vertex levels, -1 where a vertex is
// unreached, and keeps levels as its Levels. Iterations is the deepest
// level, the source's eccentricity within the reached set.
func BFSOf(levels []int32) BFSResult {
	r := BFSResult{Levels: levels}
	for _, l := range levels {
		if l >= 0 {
			r.Visited++
			r.Iterations = max(r.Iterations, int(l))
		}
	}
	return r
}

// SSSPResult is single-source shortest paths output.
type SSSPResult struct {
	// Dist[v] is the weighted distance from the source, -1 if
	// unreached.
	Dist []int64
	// Visited counts reached vertices.
	Visited int
	// Iterations is the number of relaxation phases executed.
	Iterations int
}

// SSSPOf makes the SSSPResult of per-vertex distances from the source,
// -1 where a vertex is unreached, after iterations relaxation phases,
// and keeps dist as its Dist.
func SSSPOf(dist []int64, iterations int) SSSPResult {
	r := SSSPResult{Dist: dist, Iterations: iterations}
	for _, d := range dist {
		if d >= 0 {
			r.Visited++
		}
	}
	return r
}

// ConnResult is CONN output.
type ConnResult struct {
	// Labels[v] is the smallest vertex ID in v's (weak) component.
	Labels []graph.VertexID
	// Components is the number of distinct components.
	Components int
	// Iterations is the number of propagation rounds executed.
	Iterations int
}

// CDResult is community-detection output.
type CDResult struct {
	// Labels[v] is v's community label.
	Labels []graph.VertexID
	// Communities is the number of distinct labels.
	Communities int
	// Iterations executed (≤ CDMaxIterations).
	Iterations int
}

// EVOResult is graph-evolution output.
type EVOResult struct {
	// NewVertices and NewEdges count the growth.
	NewVertices int
	NewEdges    int
	// FinalV and FinalE are the evolved graph's dimensions.
	FinalV int
	FinalE int64
	// Edges lists the added edges (new vertex -> burned target).
	Edges []graph.Edge
}

// CountLabels returns the number of distinct labels.
func CountLabels(labels []graph.VertexID) int {
	seen := make(map[graph.VertexID]struct{}, 64)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// ---- deterministic hashing helpers (shared by all platforms so that
// randomised algorithms produce identical results everywhere) --------

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Rand01 returns a deterministic pseudo-random float in [0,1) from a
// stream of values.
type Rand01 struct {
	state uint64
}

// NewRand returns a deterministic generator for the given stream
// identity (seed, plus any distinguishing ids).
func NewRand(parts ...int64) *Rand01 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = hash64(h ^ uint64(p))
	}
	return &Rand01{state: h}
}

// Next returns the next value in [0,1).
func (r *Rand01) Next() float64 {
	r.state = hash64(r.state + 0x9e3779b97f4a7c15)
	return float64(r.state>>11) / float64(1<<53)
}

// Intn returns a deterministic integer in [0,n).
func (r *Rand01) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() * float64(n))
}

// Geometric samples a geometric count with the given mean (the Forest
// Fire burn budget: mean (1-p)^-1).
func (r *Rand01) Geometric(mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Geometric with success probability q = 1/(mean+1), support 0,1,..
	q := 1.0 / (mean + 1.0)
	u := r.Next()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return int(math.Log(1-u) / math.Log(1-q))
}

// ---- CD update rule (shared by the reference and every platform) ---

// ChooseLabel applies Leung et al.'s update rule to a vertex's
// received votes: pick the label with the greatest total score (ties
// to the smaller label), with the adopted score being the best
// sender's score minus the hop attenuation. ok is false when there are
// no votes. It sorts votes in place, so a caller may pass the messages
// it received.
func ChooseLabel(votes []LabelMsg, attenuation float64) (label graph.VertexID, score float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	// Sort votes so floating-point accumulation order — and therefore
	// the result — is identical regardless of message delivery order.
	slices.SortFunc(votes, func(a, b LabelMsg) int {
		if c := cmp.Compare(a.Label, b.Label); c != 0 {
			return c
		}
		return cmp.Compare(a.Score, b.Score)
	})
	// Walk each label's run; scores ascend within it, so its last vote
	// is its best sender. Labels ascend too, so adopting only a strictly
	// greater sum sends ties to the smaller label.
	var bestSum, bestScore float64
	for i := 0; i < len(votes); {
		l, sum := votes[i].Label, 0.0
		for ; i < len(votes) && votes[i].Label == l; i++ {
			sum += votes[i].Score
		}
		if !ok || sum > bestSum {
			label, bestSum, bestScore, ok = l, sum, votes[i-1].Score, true
		}
	}
	score = bestScore - attenuation
	if score < 0 {
		score = 0
	}
	return label, score, true
}

// ---- Forest Fire core (shared deterministic burn) -------------------

// NeighborFn supplies adjacency during a burn; implementations wrap it
// with their platform's access accounting. The second list is incoming
// neighbours (equal to the first for undirected graphs).
type NeighborFn func(v graph.VertexID) (out, in []graph.VertexID)

// ForestFireBurn computes the edges created by one new vertex joining
// the graph under the Forest Fire model: choose an ambassador, then
// burn forward (out-links) and backward (in-links) with geometric
// budgets, spreading frontier by frontier. The burn is deterministic
// in (seed, newID).
func ForestFireBurn(newID graph.VertexID, numExisting int, p Params, nbrs NeighborFn) []graph.Edge {
	rng := NewRand(p.Seed, int64(newID))
	if numExisting <= 0 {
		return nil
	}
	ambassador := graph.VertexID(rng.Intn(numExisting))
	edges := []graph.Edge{{Src: newID, Dst: ambassador}}
	burned := map[graph.VertexID]bool{ambassador: true}

	x := rng.Geometric(1 / (1 - p.EVOForwardProb))  // forward budget
	y := rng.Geometric(1 / (1 - p.EVOBackwardProb)) // backward budget

	frontier := []graph.VertexID{ambassador}
	createdOut, createdIn := 0, 0
	for len(frontier) > 0 && (createdOut < x || createdIn < y) {
		var next []graph.VertexID
		for _, a := range frontier {
			out, in := nbrs(a)
			for _, w := range out {
				if createdOut >= x {
					break
				}
				if !burned[w] && rng.Next() < p.EVOForwardProb {
					burned[w] = true
					edges = append(edges, graph.Edge{Src: newID, Dst: w})
					next = append(next, w)
					createdOut++
				}
			}
			for _, w := range in {
				if createdIn >= y {
					break
				}
				if !burned[w] && rng.Next() < p.EVOBackwardProb {
					burned[w] = true
					edges = append(edges, graph.Edge{Src: newID, Dst: w})
					next = append(next, w)
					createdIn++
				}
			}
		}
		frontier = next
	}
	return edges
}

// BatchSizes returns the per-iteration new-vertex counts for EVO.
func BatchSizes(v0 int, p Params) []int {
	per := int(math.Ceil(float64(v0) * p.EVOGrowth))
	if per < 1 {
		per = 1
	}
	out := make([]int, p.EVOIterations)
	for i := range out {
		out[i] = per
	}
	return out
}

// SortEdges orders edges deterministically (by src, then dst).
func SortEdges(edges []graph.Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
}
