// Package graphbench is a Go reproduction of "How Well do
// Graph-Processing Platforms Perform? An Empirical Performance
// Evaluation and Analysis" (Guo, Biczak, Varbanescu, Iosup, Martella,
// Willke — IPDPS 2014 / TU Delft PDS-2013-004).
//
// It implements the paper's benchmarking suite end to end: the seven
// datasets of Table 2 (as structure-matched synthetic generators), the
// five algorithm classes of Section 2.2.2 (STATS, BFS, CONN, CD, EVO),
// engine models of the six platforms of Table 4 (Hadoop, YARN,
// Stratosphere, Giraph, GraphLab, Neo4j), the metrics of Table 1
// (T, EPS, VPS, NEPS, NVPS, resource usage, the Tc/To breakdown), and
// a harness that regenerates every table and figure of the evaluation
// (see the bench package and EXPERIMENTS.md).
//
// Quick start:
//
//	suite := graphbench.NewSuite(graphbench.DefaultConfig())
//	res, err := suite.Run("Giraph", "BFS", "DotaLeague")
//	if err != nil { ... }
//	fmt.Printf("T=%.1fs EPS=%.0f\n", res.Seconds, res.EPS())
//
// The engines genuinely execute each algorithm on generated graphs
// (results are validated against sequential references); job execution
// times are simulated from the measured execution profiles using cost
// models calibrated to the paper's DAS-4 cluster. See DESIGN.md for
// the substitution table.
package graphbench

import (
	"fmt"
	"slices"

	"repro/internal/algo"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/platform"
)

// Re-exported names so that users of the public API do not need the
// internal packages.

// Graph is the in-memory graph type produced by the generators.
type Graph = graph.Graph

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Hardware describes a simulated cluster.
type Hardware = cluster.Hardware

// Params carries algorithm parameters (Section 3.2 defaults via
// DefaultParams).
type Params = algo.Params

// Result is one run's outcome.
type Result = platform.Result

// Platform is a system under test.
type Platform = platform.Platform

// Status classifies a run outcome.
type Status = platform.Status

// Run outcome statuses.
const (
	OK           = platform.OK
	Crashed      = platform.Crashed
	Timeout      = platform.Timeout
	NotSupported = platform.NotSupported
)

// Algorithm names (Section 2.2.2), plus the weighted shortest-path
// extension.
const (
	STATS = platform.STATS
	BFS   = platform.BFS
	CONN  = platform.CONN
	CD    = platform.CD
	EVO   = platform.EVO
	SSSP  = platform.SSSP
)

// DAS4 returns the paper's cluster configuration.
func DAS4(nodes, coresPerNode int) Hardware { return cluster.DAS4(nodes, coresPerNode) }

// DefaultParams returns the paper's algorithm parameters.
func DefaultParams(seed int64) Params { return algo.DefaultParams(seed) }

// Platforms returns the six platforms of Table 4.
func Platforms() []Platform { return platform.All() }

// PlatformByName resolves a platform by name, including the
// "GraphLab(mp)" tuning variant.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// Datasets returns the seven dataset names of Table 2.
func Datasets() []string { return datagen.Names() }

// Algorithms returns the algorithm names (the paper's five plus SSSP).
func Algorithms() []string { return platform.Algorithms() }

// Config configures a Suite.
type Config struct {
	// Seed drives dataset generation and every randomised choice.
	Seed int64
	// Nodes and CoresPerNode set the default cluster (the paper's
	// basic-performance setup is 20 nodes × 1 core).
	Nodes, CoresPerNode int
	// ScaleFactor additionally divides every dataset's default scale
	// (1 = the repository's standard scale; larger = smaller graphs
	// for quick experimentation).
	ScaleFactor int
	// WarmCache runs Neo4j hot-cache (the paper's Figure 1 setting).
	WarmCache bool
}

// DefaultConfig returns the paper's basic-performance configuration.
func DefaultConfig() Config {
	return Config{Seed: 42, Nodes: 20, CoresPerNode: 1, ScaleFactor: 1, WarmCache: true}
}

// Suite generates datasets on demand (cached) and runs experiments. It
// is the public face of the internal bench harness: the harness owns
// the dataset cache and assembles every run.
type Suite struct {
	cfg Config
	h   *bench.Harness
}

// NewSuite creates a Suite.
func NewSuite(cfg Config) *Suite {
	if cfg.Nodes == 0 {
		cfg.Nodes = 20
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 1
	}
	if cfg.ScaleFactor == 0 {
		cfg.ScaleFactor = 1
	}
	return &Suite{cfg: cfg, h: bench.New(bench.Config{Seed: cfg.Seed, Scale: cfg.ScaleFactor})}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// Graph returns the generated graph for a dataset, generating and
// caching it on first use.
func (s *Suite) Graph(dataset string) (*Graph, error) {
	if _, err := datagen.ByName(dataset); err != nil {
		return nil, err
	}
	return s.h.Graph(dataset), nil
}

// Profile returns the dataset profile (Table 2 characteristics).
func (s *Suite) Profile(dataset string) (datagen.Profile, error) {
	return datagen.ByName(dataset)
}

// Run executes one experiment on the suite's default cluster.
func (s *Suite) Run(platformName, algorithm, dataset string) (*Result, error) {
	return s.RunOn(platformName, algorithm, dataset, DAS4(s.cfg.Nodes, s.cfg.CoresPerNode))
}

// RunOn executes one experiment on an explicit cluster configuration
// (used by the scalability experiments).
func (s *Suite) RunOn(platformName, algorithm, dataset string, hw Hardware) (*Result, error) {
	if !slices.Contains(Algorithms(), algorithm) {
		return nil, fmt.Errorf("graphbench: unknown algorithm %q", algorithm)
	}
	return s.h.RunFresh(bench.FreshRun{
		Platform: platformName, Algorithm: algorithm, Dataset: dataset,
		HW: hw, Cold: !s.cfg.WarmCache,
	})
}
