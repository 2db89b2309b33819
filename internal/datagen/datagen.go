// Package datagen generates the seven benchmark datasets of the paper
// (Table 2). The original graphs come from SNAP, the Game Trace
// Archive, and the Graph500 generator; the real ones cannot be
// redistributed here, so each is replaced by a seeded synthetic
// generator that matches the structural profile the paper's results
// depend on: directivity, vertex/edge scale, average degree, density
// class, community structure, degree skew, and BFS depth class
// (Table 5 iteration counts).
//
// Sizes are scaled down from the paper (the scale divisor is part of
// each profile) so the full suite runs on a single machine; average
// degree is preserved under scaling, which keeps per-vertex message
// volumes — the quantity that drives the paper's platform behaviour —
// representative. The Synth dataset uses a real Graph500 Kronecker
// (R-MAT) generator, exactly as the paper does.
//
// All generators are deterministic for a given seed, and each extracts
// the largest (weakly) connected component, following the paper's
// footnote: "We extract from each raw graph the largest connected
// component, so that the vertices are reachable to each other".
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Profile describes one benchmark dataset: the characteristics of the
// original graph from Table 2 of the paper, and the generator that
// produces its scaled synthetic equivalent.
type Profile struct {
	// Name is the dataset name as used in the paper.
	Name string
	// Source is where the paper obtained the graph.
	Source string
	// Directed reports the directivity column of Table 2.
	Directed bool

	// PaperV and PaperE are #V and #E from Table 2.
	PaperV, PaperE int64
	// PaperDensity is the link density d (already multiplied by 1e5,
	// as printed in Table 2).
	PaperDensity float64
	// PaperAvgDegree is D from Table 2.
	PaperAvgDegree float64
	// PaperBFSIterations and PaperBFSCoverage come from Table 5.
	PaperBFSIterations int
	PaperBFSCoverage   float64 // percent

	// VDivisor and EDivisor are the default down-scaling factors for
	// the vertex and edge targets. They are equal for most datasets
	// (preserving average degree); DotaLeague scales V less than E so
	// that the scaled graph keeps the paper's link density and
	// diameter class.
	VDivisor, EDivisor int

	gen func(p Profile, v, e int, rng *rand.Rand) *graph.Graph
}

// TargetV returns the scaled vertex-count target.
func (p Profile) TargetV() int { return int(p.PaperV / int64(p.VDivisor)) }

// TargetE returns the scaled edge-count target.
func (p Profile) TargetE() int { return int(p.PaperE / int64(p.EDivisor)) }

// GenerateScaled produces the dataset scaled down by an extra factor
// on top of the default divisors (factor > 1 shrinks further, for
// quick tests).
func (p Profile) GenerateScaled(factor int, seed int64) *graph.Graph {
	if factor < 1 {
		panic("datagen: factor must be >= 1")
	}
	v := int(p.PaperV / int64(p.VDivisor*factor))
	e := int(p.PaperE / int64(p.EDivisor*factor))
	if v < 10 {
		v = 10
	}
	if e < v {
		e = v
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(p.Name))<<32))
	g := p.gen(p, v, e, rng)
	// Keep only the largest (weakly) connected component, as the paper
	// does for every dataset.
	lc := g.LargestComponent()
	if len(lc) == g.NumVertices() {
		return g
	}
	sub, _ := g.Subgraph(lc)
	return sub
}

// Profiles returns the seven dataset profiles in Table 2 order.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "Amazon", Source: "SNAP", Directed: true,
			PaperV: 262111, PaperE: 1234877, PaperDensity: 1.8, PaperAvgDegree: 5,
			PaperBFSIterations: 68, PaperBFSCoverage: 99.9,
			VDivisor: 10, EDivisor: 10, gen: genAmazon,
		},
		{
			Name: "WikiTalk", Source: "SNAP", Directed: true,
			PaperV: 2388953, PaperE: 5018445, PaperDensity: 0.1, PaperAvgDegree: 2,
			PaperBFSIterations: 8, PaperBFSCoverage: 98.5,
			VDivisor: 100, EDivisor: 100, gen: genWikiTalk,
		},
		{
			Name: "KGS", Source: "GTA", Directed: false,
			PaperV: 293290, PaperE: 16558839, PaperDensity: 38.5, PaperAvgDegree: 113,
			PaperBFSIterations: 9, PaperBFSCoverage: 100,
			VDivisor: 10, EDivisor: 10, gen: genCommunity,
		},
		{
			Name: "Citation", Source: "SNAP", Directed: true,
			PaperV: 3764117, PaperE: 16511742, PaperDensity: 0.1, PaperAvgDegree: 4,
			PaperBFSIterations: 11, PaperBFSCoverage: 0.1,
			VDivisor: 100, EDivisor: 100, gen: genCitation,
		},
		{
			Name: "DotaLeague", Source: "GTA", Directed: false,
			PaperV: 61171, PaperE: 50870316, PaperDensity: 2719.0, PaperAvgDegree: 1663,
			PaperBFSIterations: 6, PaperBFSCoverage: 100,
			VDivisor: 5, EDivisor: 25, gen: genDense,
		},
		{
			Name: "Synth", Source: "Graph500", Directed: false,
			PaperV: 2394536, PaperE: 64152015, PaperDensity: 2.2, PaperAvgDegree: 54,
			PaperBFSIterations: 8, PaperBFSCoverage: 100,
			VDivisor: 36, EDivisor: 36, gen: genKronecker,
		},
		{
			Name: "Friendster", Source: "SNAP", Directed: false,
			PaperV: 65608366, PaperE: 1806067135, PaperDensity: 0.1, PaperAvgDegree: 55,
			PaperBFSIterations: 23, PaperBFSCoverage: 100,
			VDivisor: 1000, EDivisor: 1000, gen: genSocial,
		},
	}
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Names returns the dataset names in Table 2 order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// genAmazon models the Amazon co-purchase graph: a directed graph with
// moderate degree (D≈5), noticeable clustering, and — the property the
// paper leans on — a very deep BFS (68 iterations despite being the
// smallest graph). We arrange products in a ring of clusters
// ("categories"); products link densely within a cluster and sparsely
// to the two adjacent clusters, so breadth-first search must walk
// around the ring.
func genAmazon(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	clusters := 130 // ring length ⇒ BFS depth ≈ clusters/2 ≈ 65
	if clusters > v/4 {
		clusters = v/4 + 1 // tiny test scales: keep >= 4 products per cluster
	}
	b := graph.NewBuilder(v, true)
	size := v / clusters
	if size < 2 {
		size = 2
	}
	cluster := func(x int) int { return min(x/size, clusters-1) }
	first := func(c int) int { return c * size }
	clusterLen := func(c int) int {
		if c == clusters-1 {
			return v - first(c)
		}
		return size
	}

	perVertex := (e + v/2) / v // ≈ 5 out-edges per product
	if perVertex < 2 {
		perVertex = 2
	}
	for x := 0; x < v; x++ {
		c := cluster(x)
		// One forward and one backward inter-cluster link keep the
		// ring traversable in both directions.
		nc, pc := (c+1)%clusters, (c+clusters-1)%clusters
		b.AddEdge(graph.VertexID(x), graph.VertexID(first(nc)+rng.Intn(clusterLen(nc))))
		b.AddEdge(graph.VertexID(x), graph.VertexID(first(pc)+rng.Intn(clusterLen(pc))))
		for k := 2; k < perVertex; k++ {
			b.AddEdge(graph.VertexID(x), graph.VertexID(first(c)+rng.Intn(clusterLen(c))))
		}
	}
	return b.Build()
}

// genWikiTalk models the Wikipedia talk graph: directed, extremely
// skewed degree distribution (a small set of very active users talks
// to nearly everyone), low density, shallow BFS with near-complete
// coverage.
func genWikiTalk(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(v, true)
	hubs := v / 200
	if hubs < 4 {
		hubs = 4
	}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(hubs-1))
	used := 0
	// Every user posts on at least one very active user's page, and
	// nearly every user receives a (welcome-bot style) message from an
	// active user — that systematic reach is what gives the real graph
	// its 98.5 % BFS coverage at average out-degree 2.
	for x := hubs; x < v; x++ {
		b.AddEdge(graph.VertexID(x), graph.VertexID(int(zipf.Uint64())))
		used++
		if rng.Float64() < 0.98 {
			b.AddEdge(graph.VertexID(int(zipf.Uint64())), graph.VertexID(x))
			used++
		}
	}
	// The active users also talk to each other...
	for h := 1; h < hubs; h++ {
		b.AddEdge(graph.VertexID(h), graph.VertexID(rng.Intn(h)))
		used++
	}
	// ...and the remaining budget is user-to-user chatter.
	for i := used; i < e; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(rng.Intn(v)))
	}
	return b.Build()
}

// genCommunity models the KGS gaming graph: undirected, dense
// overlapping communities (players meet opponents in their rating
// band), high average degree.
func genCommunity(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(v, false)
	commSize := 180
	comms := v/commSize + 1
	// Assign each vertex a home community; 20% also join a second one,
	// which keeps the graph connected and the communities overlapping.
	member := make([][]int32, comms)
	for x := 0; x < v; x++ {
		c := x / commSize
		member[c] = append(member[c], int32(x))
		if rng.Float64() < 0.20 {
			// Players also meet opponents in nearby rating bands, so
			// the second community is close to the first; distant bands
			// rarely meet, which gives the graph its ~9-hop BFS depth.
			c2 := c + rng.Intn(25) - 12
			if c2 < 0 {
				c2 = 0
			}
			if c2 >= comms {
				c2 = comms - 1
			}
			member[c2] = append(member[c2], int32(x))
		}
	}
	// Sample intra-community edges until the budget is spent. Bigger
	// communities get proportionally more games.
	weights := make([]int64, comms)
	var total int64
	for i, m := range member {
		w := int64(len(m)) * int64(len(m))
		weights[i] = w
		total += w
	}
	draws := e + e/4 // dense communities lose ~20% of draws to dedup
	for i := 0; i < draws; i++ {
		r := rng.Int63n(total)
		c := 0
		for ; c < comms; c++ {
			if r < weights[c] {
				break
			}
			r -= weights[c]
		}
		m := member[c]
		if len(m) < 2 {
			continue
		}
		a, z := m[rng.Intn(len(m))], m[rng.Intn(len(m))]
		b.AddEdge(graph.VertexID(a), graph.VertexID(z))
	}
	return b.Build()
}

// genCitation models the U.S. patent citation graph: a directed
// near-DAG in which patents cite a handful of earlier patents within a
// recency window. Following out-edges from a random patent reaches
// only a tiny ancestor set — the paper measures 0.1 % BFS coverage.
func genCitation(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(v, true)
	perVertex := e / v
	if perVertex < 1 {
		perVertex = 1
	}
	// Most citations go to a small set of seminal, heavily re-cited
	// patents; a minority jump to an arbitrary earlier patent. The
	// seminal patents form a citation chain (each built on the one
	// before), so an out-edge BFS enters the chain at a random point
	// and then walks it down — about a dozen levels — while covering
	// only the seminal core plus a thin trail of uniform jumps, whose
	// expected branching (perVertex * uniformProb) is subcritical.
	// This reproduces the paper's 0.1 % coverage in 11 iterations.
	const landmarks = 20 // chain length sets the BFS depth (~11)
	const spread = 14    // citations cluster on the newest seminal patents
	const uniformProb = 0.08
	perVertex = (e + e/5) / v // ~15-20% of draws lost to dedup on the small core
	for x := 1; x < v; x++ {
		if x <= landmarks {
			b.AddEdge(graph.VertexID(x), graph.VertexID(x-1))
			continue
		}
		for k := 0; k < perVertex; k++ {
			var target int
			if rng.Float64() >= uniformProb {
				target = landmarks - 1 - rng.Intn(spread)
			} else {
				target = rng.Intn(x)
			}
			b.AddEdge(graph.VertexID(x), graph.VertexID(target))
		}
	}
	return b.Build()
}

// genDense models the DotaLeague match graph: undirected and extremely
// dense (average degree 1663 over 61 k players in the paper — density
// three orders of magnitude above the other graphs). A Chung-Lu model
// with power-law activity weights reproduces the density, the skew,
// and the tiny diameter.
func genDense(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	// Players sit in a ring of skill divisions; matchmaking pairs
	// players mostly within a division with some spillover into the
	// two adjacent divisions. Twelve divisions give the ~6-hop BFS
	// depth of the paper while the per-division match density gives
	// the extreme overall density.
	divisions := 12
	if divisions > v/8 {
		divisions = v/8 + 1 // tiny test scales
	}
	b := graph.NewBuilder(v, false)
	size := v / divisions
	if size < 2 {
		size = 2
	}
	first := func(d int) int { return d * size }
	divLen := func(d int) int {
		if d == divisions-1 {
			return v - first(d)
		}
		return size
	}
	intraBudget := e * 9 / 10 / divisions
	interBudget := e / 10 / divisions
	for d := 0; d < divisions; d++ {
		n := divLen(d)
		pairs := float64(n) * float64(n-1) / 2
		q := float64(intraBudget) / pairs
		if q > 0.95 {
			q = 0.95
		}
		// Coupon-collector oversampling: filling fraction q of all
		// pairs by uniform draws needs ~ -ln(1-q) * pairs draws.
		draws := int(-math.Log(1-q) * pairs)
		f := first(d)
		for i := 0; i < draws; i++ {
			b.AddEdge(graph.VertexID(f+rng.Intn(n)), graph.VertexID(f+rng.Intn(n)))
		}
		nd := (d + 1) % divisions
		nf, nn := first(nd), divLen(nd)
		for i := 0; i < interBudget; i++ {
			b.AddEdge(graph.VertexID(f+rng.Intn(n)), graph.VertexID(nf+rng.Intn(nn)))
		}
	}
	return b.Build()
}

// genKronecker is the Graph500 generator the paper uses for Synth: an
// R-MAT/Kronecker edge sampler with the reference parameters
// A=0.57, B=0.19, C=0.19, D=0.05, treated as undirected.
func genKronecker(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	scale := 0
	for 1<<scale < v {
		scale++
	}
	if 1<<scale > v && scale > 0 {
		scale-- // round down to the power of two below the target
	}
	n := 1 << scale
	// Preserve the edge budget even though V rounded down; R-MAT's
	// skew loses ~20% of draws to deduplication, so oversample.
	b := graph.NewBuilder(n, false)
	const a, bb, c = 0.57, 0.19, 0.19
	draws := e + e/4
	for i := 0; i < draws; i++ {
		var src, dst int
		for lvl := 0; lvl < scale; lvl++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant: no bits set
			case r < a+bb:
				dst |= 1 << lvl
			case r < a+bb+c:
				src |= 1 << lvl
			default:
				src |= 1 << lvl
				dst |= 1 << lvl
			}
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst))
	}
	return b.Build()
}

// genSocial models Friendster: a very large undirected social network
// with power-law degrees, strong locality (friend groups), and a
// moderate diameter (23 BFS iterations in the paper). Friend circles
// are arranged in a ring of regions; friendships are mostly within a
// region with some spillover to neighbouring regions.
func genSocial(p Profile, v, e int, rng *rand.Rand) *graph.Graph {
	regions := 44 // ring length ⇒ BFS depth ≈ regions/2 ≈ 22
	if regions > v/10 {
		regions = v/10 + 1 // tiny test scales
	}
	b := graph.NewBuilder(v, false)
	size := v / regions
	if size < 2 {
		size = 2
	}
	region := func(x int) int { return min(x/size, regions-1) }
	first := func(r int) int { return r * size }
	regionLen := func(r int) int {
		if r == regions-1 {
			return v - first(r)
		}
		return size
	}
	perVertex := (e + e/4) / v // zipf popularity loses ~20% to dedup
	if perVertex < 2 {
		perVertex = 2
	}
	zipf := rand.NewZipf(rng, 1.6, 8, uint64(size-1))
	for x := 0; x < v; x++ {
		r := region(x)
		// One link into each adjacent region keeps the ring walkable.
		nr, pr := (r+1)%regions, (r+regions-1)%regions
		b.AddEdge(graph.VertexID(x), graph.VertexID(first(nr)+rng.Intn(regionLen(nr))))
		b.AddEdge(graph.VertexID(x), graph.VertexID(first(pr)+rng.Intn(regionLen(pr))))
		// Local friendships with power-law popularity inside the region.
		for k := 2; k < perVertex; k++ {
			t := first(r) + int(zipf.Uint64())%regionLen(r)
			b.AddEdge(graph.VertexID(x), graph.VertexID(t))
		}
	}
	return b.Build()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
