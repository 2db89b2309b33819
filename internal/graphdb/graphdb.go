// Package graphdb is a single-machine, disk-backed graph database
// modelled on Neo4j 1.5 (Section 3.1 of the paper). It reproduces the
// behaviours the paper measures:
//
//   - a record-oriented store (node records + relationship records) on
//     a single SATA disk;
//   - a two-level main-memory cache: the file-buffer cache over the
//     store files and an object cache holding inflated vertex and
//     relationship objects, giving the cold-cache/hot-cache split of
//     Section 4.1.1 (ratios up to 45x);
//   - "lazy reads": only records the traversal touches are fetched, so
//     low-coverage traversals (Citation BFS) stay fast even cold;
//   - collapse when the object-cache working set exceeds the heap
//     (the paper's 17-hour hot-cache Synth run);
//   - batch-transaction ingestion whose cost is dominated by a
//     per-vertex charge (index and store updates), matching the
//     irregular, hours-long Table 6 ingestion times.
package graphdb

import (
	"repro/internal/cluster"
	"repro/internal/graph"
)

// Record sizes of the store files, in bytes (Neo4j 1.x fixed-size
// records: 14-byte node records, 33-byte relationship records; we use
// round figures that include the relationship-type overhead).
const (
	NodeRecordBytes = 15
	RelRecordBytes  = 34
)

// Config configures a database.
type Config struct {
	// HeapBytes is the JVM heap (the paper sets 20 GB).
	HeapBytes int64
	// ObjectInflation is the ratio of object-cache footprint to store
	// bytes (Java object headers, pointers, boxing).
	ObjectInflation float64
	// BatchVertices and BatchEdges are the ingestion transaction
	// thresholds (the paper uses 10,000 vertices or 250,000 edges).
	BatchVertices, BatchEdges int
	// Projection scales memory and ingestion accounting back to the
	// paper-scale dataset (the dataset's edge scale divisor); 1 means
	// no scaling. Simulated per-run I/O stays at the scaled workload.
	Projection int64
}

// DefaultConfig returns the paper's Neo4j configuration.
func DefaultConfig() Config {
	return Config{
		HeapBytes:       20 << 30,
		ObjectInflation: 5,
		BatchVertices:   10000,
		BatchEdges:      250000,
		Projection:      1,
	}
}

// DB is an opened database over an ingested graph.
type DB struct {
	g   *graph.Graph
	cfg Config

	// residentNode/residentAdj model the two-level cache: whether a
	// vertex record (and its relationship chain) is in memory.
	residentNode []bool
	residentAdj  []bool
	// cachedFrac is the fraction of the store that fits when the
	// working set exceeds the heap (thrashing mode); 1.0 otherwise.
	cachedFrac float64
}

// Open ingests g into a fresh database (cold caches).
func Open(g *graph.Graph, cfg Config) *DB {
	if cfg.HeapBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Projection < 1 {
		cfg.Projection = 1
	}
	db := &DB{
		g: g, cfg: cfg,
		residentNode: make([]bool, g.NumVertices()),
		residentAdj:  make([]bool, g.NumVertices()),
	}
	db.cachedFrac = 1.0
	if need := db.ObjectBytesProjected(); need > cfg.HeapBytes {
		// Once the object cache cannot hold the working set, LRU churn
		// and GC pressure make the effective hit rate collapse well
		// below the naive capacity ratio — the paper's 17-hour
		// hot-cache Synth run.
		db.cachedFrac = 0.3 * float64(cfg.HeapBytes) / float64(need)
	}
	return db
}

// Graph returns the stored graph.
func (db *DB) Graph() *graph.Graph { return db.g }

// StoreBytes returns the on-disk size of the node and relationship
// store files (each undirected edge is two relationship directions in
// the chain, matching AdjSize).
func (db *DB) StoreBytes() int64 {
	return int64(db.g.NumVertices())*NodeRecordBytes + db.g.AdjSize()*RelRecordBytes
}

// ObjectBytesProjected returns the projected object-cache footprint of
// the whole graph at paper scale.
func (db *DB) ObjectBytesProjected() int64 {
	return int64(float64(db.StoreBytes()*db.cfg.Projection) * db.cfg.ObjectInflation)
}

// IngestSeconds models batch-transaction ingestion at paper scale: a
// per-vertex cost dominates (store allocation plus index update under
// small transactions), with a smaller per-relationship cost and a
// commit cost per batch. Calibrated against Table 6 (e.g. Amazon 2.0h,
// WikiTalk 17.2h, DotaLeague 3.7h).
func (db *DB) IngestSeconds() float64 {
	const (
		perVertex = 0.0263  // seconds
		perEdge   = 0.00026 // seconds
		perCommit = 0.5     // seconds (fsync + log rotation)
	)
	v := float64(db.g.NumVertices()) * float64(db.cfg.Projection)
	e := float64(db.g.NumEdges()) * float64(db.cfg.Projection)
	commits := v/float64(db.cfg.BatchVertices) + e/float64(db.cfg.BatchEdges)
	return v*perVertex + e*perEdge + commits*perCommit
}

// Run is one algorithm execution session over the database, tracking
// cache behaviour and I/O.
type Run struct {
	db *DB

	// Measured.
	Hops      int64 // relationship traversals
	NodeReads int64 // vertex record accesses
	DiskBytes int64 // bytes actually fetched from disk
	Misses    int64
	ExtraOps  int64 // explicit computation charges (Charge)
}

// Charge adds explicit computation work beyond the per-hop baseline
// (e.g. the quadratic neighbourhood intersections of STATS).
func (r *Run) Charge(ops int64) { r.ExtraOps += ops }

// NewRun starts a session. Cache state (warm records) persists across
// runs on the same DB — run once for cold-cache numbers, again for
// hot-cache.
func (db *DB) NewRun() *Run { return &Run{db: db} }

// cached reports whether record i stays cacheable in thrashing mode
// (a stable pseudo-random subset of size cachedFrac).
func (db *DB) cacheable(v graph.VertexID) bool {
	if db.cachedFrac >= 1.0 {
		return true
	}
	h := uint64(v) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	return float64(h%1024)/1024.0 < db.cachedFrac
}

// Node touches a vertex record (e.g. to read its properties).
func (r *Run) Node(v graph.VertexID) {
	r.NodeReads++
	if r.db.residentNode[v] && r.db.cacheable(v) {
		return
	}
	r.Misses++
	r.DiskBytes += NodeRecordBytes
	if r.db.cacheable(v) {
		r.db.residentNode[v] = true
	}
}

// Neighbors touches v's relationship chain and returns its
// out-neighbours ("lazy read": only this vertex's relationships are
// fetched).
func (r *Run) Neighbors(v graph.VertexID) []graph.VertexID {
	r.Node(v)
	out := r.db.g.Out(v)
	r.Hops += int64(len(out))
	if r.db.residentAdj[v] && r.db.cacheable(v) {
		return out
	}
	r.Misses++
	r.DiskBytes += int64(r.db.g.Degree(v)) * RelRecordBytes
	if r.db.cacheable(v) {
		r.db.residentAdj[v] = true
	}
	return out
}

// InNeighbors is Neighbors for incoming relationships (same chain in
// the record store, so the caching behaviour is shared).
func (r *Run) InNeighbors(v graph.VertexID) []graph.VertexID {
	r.Node(v)
	in := r.db.g.In(v)
	r.Hops += int64(len(in))
	if r.db.residentAdj[v] && r.db.cacheable(v) {
		return in
	}
	r.Misses++
	r.DiskBytes += int64(r.db.g.Degree(v)) * RelRecordBytes
	if r.db.cacheable(v) {
		r.db.residentAdj[v] = true
	}
	return in
}

// Finish appends this session's phases to profile: traversal compute
// plus the (random) disk I/O the cache misses caused.
func (r *Run) Finish(name string, profile *cluster.ExecutionProfile) {
	if profile == nil {
		return
	}
	ops := r.Hops + r.NodeReads + r.ExtraOps
	profile.AddPhase(cluster.Phase{
		Name: name + ":traverse", Kind: cluster.PhaseCompute,
		Ops: ops, MaxPartOps: ops, // single-threaded traversal
	})
	if r.DiskBytes > 0 {
		profile.AddPhase(cluster.Phase{
			Name: name + ":pagein", Kind: cluster.PhaseRead,
			DiskRead: r.DiskBytes, Seeks: r.Misses,
		})
	}
}
