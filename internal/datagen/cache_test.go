package datagen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cacheProfile picks a small, fast profile for cache tests.
func cacheProfile(t *testing.T) Profile {
	t.Helper()
	p, err := ByName("WikiTalk")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSnapshotKey(t *testing.T) {
	key := SnapshotKey("DotaLeague", 4, 99)
	for _, part := range []string{"DotaLeague", "_f4", "_s99", "_g", "_b", ".gcsr"} {
		if !strings.Contains(key, part) {
			t.Fatalf("SnapshotKey = %q, missing %q", key, part)
		}
	}
	if SnapshotKey("DotaLeague", 4, 99) != key {
		t.Fatal("SnapshotKey not deterministic")
	}
	if SnapshotKey("DotaLeague", 5, 99) == key || SnapshotKey("DotaLeague", 4, 98) == key {
		t.Fatal("SnapshotKey must distinguish factor and seed")
	}
	// The weighted variant's name (fingerprints only, no file) is
	// disjoint from the topology's and folds in the weight seed.
	if WeightedSnapshotKey("DotaLeague", 4, 99, 7) == key {
		t.Fatal("weighted and unweighted snapshot keys must differ")
	}
	if WeightedSnapshotKey("DotaLeague", 4, 99, 7) == WeightedSnapshotKey("DotaLeague", 4, 99, 8) {
		t.Fatal("weighted key must fold in the weight seed")
	}
}

// TestGenerateCachedMissHitCorrupt walks the cache life cycle: a miss
// generates and writes a snapshot, a hit loads an identical graph from
// it, and a corrupted snapshot is detected and silently regenerated.
func TestGenerateCachedMissHitCorrupt(t *testing.T) {
	p := cacheProfile(t)
	dir := t.TempDir()
	const factor, seed = 8, 42
	path := filepath.Join(dir, SnapshotKey(p.Name, factor, seed))

	want := p.GenerateScaled(factor, seed)

	// Miss: generates and populates the cache.
	g := p.GenerateCached(factor, seed, dir)
	if !g.Equal(want) {
		t.Fatal("cache miss produced a different graph than GenerateScaled")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written on miss: %v", err)
	}

	// Hit: the snapshot round-trips to the identical graph.
	g2 := p.GenerateCached(factor, seed, dir)
	if !g2.Equal(want) {
		t.Fatal("cache hit produced a different graph")
	}

	// Corrupt the snapshot; the checksum must catch it and the graph be
	// regenerated (and the snapshot rewritten, making the next read a
	// clean hit again).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupt snapshot")
	}
	g3 := p.GenerateCached(factor, seed, dir)
	if !g3.Equal(want) {
		t.Fatal("corrupt snapshot was not regenerated correctly")
	}
	if _, err := ReadSnapshot(path); err != nil {
		t.Fatalf("snapshot not rewritten after corruption: %v", err)
	}
}

// TestGenerateCachedDisabled checks that an empty cache dir is a pure
// pass-through to GenerateScaled.
func TestGenerateCachedDisabled(t *testing.T) {
	p := cacheProfile(t)
	if !p.GenerateCached(8, 42, "").Equal(p.GenerateScaled(8, 42)) {
		t.Fatal("empty cache dir must behave exactly like GenerateScaled")
	}
}

// TestWriteSnapshotAtomic checks that no partial files are left under
// the final name and the temp file is cleaned up.
func TestWriteSnapshotAtomic(t *testing.T) {
	p := cacheProfile(t)
	dir := t.TempDir()
	g := p.GenerateScaled(8, 42)
	path := filepath.Join(dir, "nested", "snap.gcsr")
	if err := WriteSnapshot(path, g); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".snapshot-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("snapshot round trip altered the graph")
	}
}
