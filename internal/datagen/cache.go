package datagen

// Snapshot cache: generated datasets serialised as binary CSR
// snapshots (internal/graph WriteBinary/ReadBinary) and keyed by
// dataset name, scale factor, and seed, so repeated experiment runs
// skip both regeneration and text reparse entirely. LDBC Graphalytics
// separates the load phase from the processing phase the same way; the
// cache makes the load phase a single sequential block read.
//
// Cache keys fold in two format versions:
//
//   - generatorVersion, bumped whenever any generator in this package
//     changes its output for a fixed (profile, factor, seed);
//   - graph.BinaryVersion, bumped whenever the snapshot layout changes.
//
// Either bump makes every stale snapshot miss, and a corrupt or
// truncated snapshot fails ReadBinary's checksum and is regenerated,
// so the cache never has to be invalidated by hand.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// generatorVersion versions the generators' output. Bump it when a
// generator change alters the graph produced for a fixed profile,
// factor, and seed.
const generatorVersion = 1

// SnapshotKey returns the cache file name for a dataset at the given
// extra scale factor and seed.
func SnapshotKey(name string, factor int, seed int64) string {
	return fmt.Sprintf("%s_f%d_s%d_g%d_b%d.gcsr",
		name, factor, seed, generatorVersion, graph.BinaryVersion)
}

// GenerateCached produces the dataset like GenerateScaled, but backed
// by an on-disk snapshot cache in dir. An empty dir disables caching.
// Cache misses (including unreadable, stale, or corrupt snapshots)
// regenerate the graph and rewrite the snapshot; snapshot write
// failures are ignored — the cache is an accelerator, not a store of
// record.
func (p Profile) GenerateCached(factor int, seed int64, dir string) *graph.Graph {
	if dir == "" {
		return p.GenerateScaled(factor, seed)
	}
	path := filepath.Join(dir, SnapshotKey(p.Name, factor, seed))
	if g, err := ReadSnapshot(path); err == nil && g.Directed() == p.Directed {
		return g
	}
	g := p.GenerateScaled(factor, seed)
	_ = WriteSnapshot(path, g)
	return g
}

// WeightedSnapshotKey names the weighted variant of a dataset: the
// topology snapshot with weights derived from weightSeed
// (graph.WithWeights). Weights are never stored, so no file carries
// this name; experiment fingerprints record it so two bundles can tell
// whether their SSSP cells ran on the same weighted graph.
func WeightedSnapshotKey(name string, factor int, seed int64, weightSeed uint64) string {
	return fmt.Sprintf("%s_f%d_s%d_g%d_b%d_w%d.gcsr",
		name, factor, seed, generatorVersion, graph.BinaryVersion, weightSeed)
}

// ReadSnapshot loads one snapshot file.
func ReadSnapshot(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(f)
}

// WriteSnapshot atomically writes g to path (temp file + rename), so a
// crashed or concurrent writer can never leave a half-written snapshot
// under the final name.
func WriteSnapshot(path string, g *graph.Graph) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(tmp, g); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
