package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary CSR snapshot format.
//
// The text interchange format (format.go) is what the paper's platforms
// ingest; parsing it dominates repeated experiment runs. A snapshot
// stores the already-built CSR arrays verbatim so a later run can load
// the graph with large block reads instead of reparsing and rebuilding.
//
// Layout (all integers little-endian, independent of host endianness):
//
//	offset  size        field
//	0       4           magic "GCSR"
//	4       4           format version (uint32, currently 1)
//	8       4           flags (bit 0: directed)
//	12      4           n, the vertex count (uint32)
//	16      8           outLen = len(adj) (uint64)
//	24      8           inLen = len(inAdj) (uint64, 0 when undirected)
//	32      (n+1)*8     offsets (uint64 each)
//	...     outLen*4    adj (uint32 each)
//	...     (n+1)*8     inOffsets (directed only)
//	...     inLen*4     inAdj (directed only)
//	end     4           CRC-32C (Castagnoli) of every preceding byte
//
// Edge weights are never stored: every weighted graph is a seed-derived
// view (WithWeights) that is recomputed from the topology in one
// parallel pass, so WriteBinary refuses a weighted graph instead of
// silently dropping its weights.
//
// Readers must reject unknown versions; the version is bumped whenever
// the layout (or the semantics of the arrays) changes, and the snapshot
// cache (internal/datagen) folds it into the cache key so stale
// snapshots are never picked up after a format change.

// BinaryVersion is the snapshot format version (and the version folded
// into the snapshot cache key).
const BinaryVersion = 1

const (
	binaryMagic      = "GCSR"
	binaryHeaderSize = 32
	flagDirected     = 1 << 0

	// ioChunk is the scratch-buffer size used to encode/decode the
	// arrays in large blocks. One buffer per call, never per element.
	ioChunk = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BinarySize returns the exact number of bytes WriteBinary produces.
// The cluster model uses it as the on-disk size of a snapshot-format
// dataset, the way TextSize sizes the paper's text format.
func BinarySize(g *Graph) int64 {
	n := int64(binaryHeaderSize)
	n += int64(len(g.offsets)) * 8
	n += int64(len(g.adj)) * 4
	if g.directed {
		n += int64(len(g.inOffsets)) * 8
		n += int64(len(g.inAdj)) * 4
	}
	return n + 4 // CRC trailer
}

// crcWriter funnels writes through a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	return cw.w.Write(p)
}

// WriteBinary serialises g as a versioned binary CSR snapshot. The
// format has no weight sections, so a weighted graph is an error.
func WriteBinary(w io.Writer, g *Graph) error {
	if g.Weighted() {
		return fmt.Errorf("graph: WriteBinary of a weighted graph (snapshot the topology and re-derive with WithWeights)")
	}
	bw := bufio.NewWriterSize(w, ioChunk)
	cw := &crcWriter{w: bw}

	var hdr [binaryHeaderSize]byte
	copy(hdr[0:4], binaryMagic)
	var flags uint32
	if g.directed {
		flags |= flagDirected
	}
	binary.LittleEndian.PutUint32(hdr[4:8], BinaryVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(g.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(g.adj)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(g.inAdj)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}

	buf := make([]byte, ioChunk)
	if err := writeInt64s(cw, buf, g.offsets); err != nil {
		return err
	}
	if err := writeVertexIDs(cw, buf, g.adj); err != nil {
		return err
	}
	if g.directed {
		if err := writeInt64s(cw, buf, g.inOffsets); err != nil {
			return err
		}
		if err := writeVertexIDs(cw, buf, g.inAdj); err != nil {
			return err
		}
	}

	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func writeInt64s(w io.Writer, buf []byte, xs []int64) error {
	per := len(buf) / 8
	for len(xs) > 0 {
		m := min(per, len(xs))
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(xs[i]))
		}
		if _, err := w.Write(buf[:m*8]); err != nil {
			return err
		}
		xs = xs[m:]
	}
	return nil
}

func writeVertexIDs(w io.Writer, buf []byte, xs []VertexID) error {
	per := len(buf) / 4
	for len(xs) > 0 {
		m := min(per, len(xs))
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(xs[i]))
		}
		if _, err := w.Write(buf[:m*4]); err != nil {
			return err
		}
		xs = xs[m:]
	}
	return nil
}

// crcReader funnels reads through a running CRC-32C.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

// ReadBinary loads a graph from a binary CSR snapshot, verifying the
// format version, the structural invariants, and the checksum.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, ioChunk)
	cr := &crcReader{r: br}

	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot header: %w", err)
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: not a CSR snapshot (magic %q)", hdr[0:4])
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	if version != BinaryVersion {
		return nil, fmt.Errorf("graph: snapshot version %d, want %d", version, BinaryVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if flags&^flagDirected != 0 {
		return nil, fmt.Errorf("graph: snapshot has unknown flags %#x", flags)
	}
	directed := flags&flagDirected != 0
	n64 := uint64(binary.LittleEndian.Uint32(hdr[12:16]))
	outLen := binary.LittleEndian.Uint64(hdr[16:24])
	inLen := binary.LittleEndian.Uint64(hdr[24:32])
	if n64 > 1<<31-1 {
		return nil, fmt.Errorf("graph: snapshot vertex count %d out of range", n64)
	}
	const maxAdj = 1 << 35 // sanity bound: refuse absurd allocation requests
	if outLen > maxAdj || inLen > maxAdj {
		return nil, fmt.Errorf("graph: snapshot adjacency lengths %d/%d out of range", outLen, inLen)
	}
	if !directed && inLen != 0 {
		return nil, fmt.Errorf("graph: undirected snapshot with in-adjacency (%d entries)", inLen)
	}
	n := int32(n64)

	g := &Graph{directed: directed, n: n}
	buf := make([]byte, ioChunk)
	var err error
	if g.offsets, err = readInt64s(cr, buf, int(n64)+1); err != nil {
		return nil, fmt.Errorf("graph: snapshot offsets: %w", err)
	}
	// Neighbour IDs are range-checked inside the decode loop, so the
	// adjacency arrays never need a separate validation pass.
	if g.adj, err = readVertexIDs(cr, buf, int(outLen), n); err != nil {
		return nil, fmt.Errorf("graph: snapshot adjacency: %w", err)
	}
	if directed {
		if g.inOffsets, err = readInt64s(cr, buf, int(n64)+1); err != nil {
			return nil, fmt.Errorf("graph: snapshot in-offsets: %w", err)
		}
		if g.inAdj, err = readVertexIDs(cr, buf, int(inLen), n); err != nil {
			return nil, fmt.Errorf("graph: snapshot in-adjacency: %w", err)
		}
	}

	sum := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return nil, fmt.Errorf("graph: snapshot checksum mismatch (stored %#x, computed %#x)", got, sum)
	}

	if err := validateOffsets(n, g.offsets, int64(len(g.adj))); err != nil {
		return nil, fmt.Errorf("graph: snapshot out-CSR: %w", err)
	}
	if directed {
		if err := validateOffsets(n, g.inOffsets, int64(len(g.inAdj))); err != nil {
			return nil, fmt.Errorf("graph: snapshot in-CSR: %w", err)
		}
	}
	return g, nil
}

func readInt64s(r io.Reader, buf []byte, count int) ([]int64, error) {
	out := make([]int64, count)
	per := len(buf) / 8
	for i := 0; i < count; {
		m := min(per, count-i)
		if _, err := io.ReadFull(r, buf[:m*8]); err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			out[i+j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
		}
		i += m
	}
	return out, nil
}

// readVertexIDs decodes count adjacency entries, rejecting any ID
// outside [0, n) as it converts — validation rides the decode pass
// instead of costing a second sweep over the arrays.
func readVertexIDs(r io.Reader, buf []byte, count int, n int32) ([]VertexID, error) {
	out := make([]VertexID, count)
	per := len(buf) / 4
	for i := 0; i < count; {
		m := min(per, count-i)
		if _, err := io.ReadFull(r, buf[:m*4]); err != nil {
			return nil, err
		}
		chunk := buf[:m*4]
		for j := 0; j < m; j++ {
			x := binary.LittleEndian.Uint32(chunk[j*4:])
			if x >= uint32(n) {
				return nil, fmt.Errorf("adjacency entry %d = %d out of range [0,%d)", i+j, x, n)
			}
			out[i+j] = VertexID(x)
		}
		i += m
	}
	return out, nil
}

// validateOffsets checks the structural invariants every loaded
// snapshot's offset array must satisfy before algorithms index through
// it: monotone offsets that span the adjacency array exactly.
func validateOffsets(n int32, offsets []int64, adjLen int64) error {
	if len(offsets) != int(n)+1 {
		return fmt.Errorf("offsets length %d, want %d", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != adjLen {
		return fmt.Errorf("offsets[%d] = %d, want %d", n, offsets[n], adjLen)
	}
	for v := int32(0); v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return fmt.Errorf("offsets not monotone at vertex %d", v)
		}
	}
	return nil
}

// Equal reports whether g and h have identical internal representation:
// same directivity and byte-identical offsets/adj (and in-variants for
// directed graphs). Because Build canonicalises adjacency lists (sorted,
// deduplicated), Equal is also semantic graph equality for graphs
// produced by Builder, ReadText, or ReadBinary.
func (g *Graph) Equal(h *Graph) bool {
	if g.directed != h.directed || g.n != h.n {
		return false
	}
	if g.weightSeed != h.weightSeed {
		return false
	}
	return int64SlicesEqual(g.offsets, h.offsets) &&
		vertexSlicesEqual(g.adj, h.adj) &&
		int64SlicesEqual(g.inOffsets, h.inOffsets) &&
		vertexSlicesEqual(g.inAdj, h.inAdj) &&
		uint32SlicesEqual(g.weights, h.weights) &&
		uint32SlicesEqual(g.inWeights, h.inWeights)
}

func uint32SlicesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func vertexSlicesEqual(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
