package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	mathbits "math/bits"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/par"
)

// The paper's plain-text interchange format (Section 2.2.1):
//
//   - one vertex per line;
//   - undirected: "<id>\t<n1>,<n2>,..." — the vertex ID followed by a
//     comma-separated list of neighbours;
//   - directed:   "<id>\t<in1>,...\t<out1>,..." — the vertex ID followed
//     by the incoming and the outgoing neighbour lists.
//
// Empty neighbour lists are written as an empty field. Lines starting
// with '#' are comments. The first non-comment line is a header of the
// form "V <n> directed|undirected" so a reader can pre-size structures;
// the paper stores graphs "in plain text with a processing-friendly
// format but without indexes", and a one-line header keeps the format
// processing-friendly without adding an index.
//
// ReadText validates its input strictly: every vertex in [0, n) must
// appear on exactly one line (duplicate or missing vertex lines are
// errors), every ID must be in range, and the line count must agree
// with the header. Strictness is what lets the reader parse chunks of
// the file concurrently without a reconciliation pass, and it turns
// generator or transfer bugs into immediate, diagnosable errors rather
// than silently skewed experiments.

// WriteText serialises g in the paper's text format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(bw, "V %d %s\n", g.n, kind); err != nil {
		return err
	}
	var buf []byte
	for v := VertexID(0); v < VertexID(g.n); v++ {
		buf = strconv.AppendInt(buf[:0], int64(v), 10)
		buf = append(buf, '\t')
		if g.directed {
			buf = appendList(buf, g.In(v))
			buf = append(buf, '\t')
		}
		buf = appendList(buf, g.Out(v))
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendList(buf []byte, list []VertexID) []byte {
	for i, x := range list {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return buf
}

// ReadText parses a graph in the paper's text format.
//
// The file is read fully into memory, split into line-aligned byte
// chunks after the header, and the chunks are parsed concurrently with
// per-worker edge buffers — no per-line allocation, no string
// materialisation. The resulting Graph is identical regardless of the
// worker count: chunk edge lists are concatenated in file order and the
// CSR build canonicalises every adjacency list (sorted, deduplicated).
func ReadText(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return parseText(data, parseWorkers(len(data)))
}

// readAll is io.ReadAll with the buffer pre-sized when the source
// exposes its length (bytes/strings readers, regular files), avoiding
// the growth copies on multi-megabyte datasets.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch rr := r.(type) {
	case interface{ Len() int }:
		size = rr.Len()
	case *os.File:
		if fi, err := rr.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < 1<<40 {
			size = int(fi.Size())
		}
	}
	buf := make([]byte, 0, size+512)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// parseSeqThreshold is the input size below which chunked parsing is
// not worth the fan-out.
const parseSeqThreshold = 64 << 10

// parseWorkers is the chunk count for an input of size bytes; the cap
// in par.Workers also bounds the per-chunk duplicate-detection bitmaps.
func parseWorkers(size int) int {
	if size < parseSeqThreshold {
		return 1
	}
	return par.Workers()
}

// chunkSurvey is the output of the survey pass over one byte chunk.
type chunkSurvey struct {
	// seen marks the vertex IDs whose line appeared in this chunk, for
	// duplicate-line detection across chunks.
	seen  []uint64
	lines int
	// err is the first malformed line, with errOff its byte offset
	// relative to the start of the vertex body.
	err    error
	errOff int
}

// parseText parses the full text representation with the given number
// of concurrent chunk parsers.
//
// Because the format is strict — every vertex on exactly one line, the
// line holding that vertex's complete neighbour lists — each line fully
// determines its vertex's CSR bucket, and the parse can build the CSR
// arrays directly with sequential writes, no intermediate edge array
// and no scatter pass:
//
//  1. survey: per chunk, locate lines, detect duplicate/out-of-range
//     vertex IDs, and count each line's neighbour tokens (a comma
//     count, no digit parsing) into shared degree arrays;
//  2. prefix-sum the degrees into offsets and allocate adjacency;
//  3. fill: per chunk, re-scan lines and decode neighbour IDs straight
//     into each vertex's bucket (self-loops skipped);
//  4. canonicalise each bucket (sort + dedup, with an already-sorted
//     fast path) and compact if anything shrank;
//  5. verify cross-line consistency: undirected adjacency must be
//     symmetric, and directed in-lists must be the exact transpose of
//     the out-lists.
//
// Step 5 is a semantic tightening over the old scanner-based reader,
// which silently reconstructed one side (undirected neighbours from the
// lower-ID line, directed in-lists from out-lists). Inconsistent files
// are now errors rather than silently reinterpreted.
func parseText(data []byte, workers int) (*Graph, error) {
	n, directed, bodyStart, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	body := data[bodyStart:]

	// Plausibility guard before any O(n) allocation: the smallest legal
	// vertex line is "<id>\t\n" (one more field when directed), so a
	// header declaring more vertices than the remaining bytes can hold
	// is malformed. This also bounds memory on hostile inputs.
	minLine := 3
	if directed {
		minLine = 4
	}
	if int64(n)*int64(minLine) > int64(len(body)) {
		return nil, fmt.Errorf("graph: header declares %d vertices but only %d bytes of vertex data follow", n, len(body))
	}

	if workers < 1 {
		workers = 1
	}
	chunks := splitLineChunks(body, workers)
	fileErr := func(errOff int, err error) error {
		line := 1 + bytes.Count(data[:bodyStart+errOff], []byte{'\n'})
		return fmt.Errorf("graph: line %d: %w", line, err)
	}

	// Phase 1: survey. Degree counts go through atomic adds: a vertex's
	// line is unique in valid input, but duplicate lines (reported just
	// below) would otherwise race before the error surfaces.
	outDeg := make([]int32, n)
	var inDeg []int32
	if directed {
		inDeg = make([]int32, n)
	}
	surveys := make([]chunkSurvey, len(chunks))
	par.For(len(chunks), len(chunks), func(_, i int) {
		surveys[i] = surveyChunk(body, chunks[i][0], chunks[i][1], int32(n), directed, outDeg, inDeg)
	})

	// Report the first malformed line in file order (chunks are in file
	// order, and each chunk stops at its first error).
	for i := range surveys {
		if surveys[i].err != nil {
			return nil, fileErr(surveys[i].errOff, surveys[i].err)
		}
	}

	// Merge duplicate-detection bitmaps in chunk order; a bit set twice
	// is a vertex with two lines in different chunks (same-chunk
	// duplicates were caught during the survey).
	lines := 0
	var merged []uint64
	for i := range surveys {
		lines += surveys[i].lines
		if merged == nil {
			merged = surveys[i].seen
			continue
		}
		for w, bits := range surveys[i].seen {
			if dup := merged[w] & bits; dup != 0 {
				id := w*64 + mathbits.TrailingZeros64(dup)
				return nil, fmt.Errorf("graph: duplicate vertex line for id %d", id)
			}
			merged[w] |= bits
		}
	}
	if lines != n {
		return nil, fmt.Errorf("graph: file has %d vertex lines, header declares %d", lines, n)
	}

	// Phase 2: offsets from the surveyed degrees, then a parallel direct
	// fill. Buckets are disjoint per vertex line, so chunks write
	// without synchronisation. fill[v] can end below the surveyed count
	// when a line carries self-loops; canonicalisation trims the slack.
	offsets := prefixDegrees(outDeg)
	adj := make([]VertexID, offsets[n])
	outFill := make([]int32, n)
	var inOffsets []int64
	var inAdj []VertexID
	var inFill []int32
	if directed {
		inOffsets = prefixDegrees(inDeg)
		inAdj = make([]VertexID, inOffsets[n])
		inFill = make([]int32, n)
	}
	fills := make([]chunkSurvey, len(chunks))
	par.For(len(chunks), len(chunks), func(_, i int) {
		fills[i] = fillChunk(body, chunks[i][0], chunks[i][1], int32(n), directed,
			offsets, adj, outFill, inOffsets, inAdj, inFill)
	})
	for i := range fills {
		if fills[i].err != nil {
			return nil, fileErr(fills[i].errOff, fills[i].err)
		}
	}

	g := &Graph{directed: directed, n: int32(n)}
	g.offsets, g.adj = canonicalizeCSR(int32(n), offsets, adj, outFill, workers)
	if directed {
		g.inOffsets, g.inAdj = canonicalizeCSR(int32(n), inOffsets, inAdj, inFill, workers)
		if err := checkTranspose(int32(n), g.offsets, g.adj, g.inOffsets, g.inAdj); err != nil {
			return nil, err
		}
	} else {
		if err := checkSymmetric(int32(n), g.offsets, g.adj); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// prefixDegrees turns per-vertex counts into a CSR offset array.
func prefixDegrees(deg []int32) []int64 {
	offsets := make([]int64, len(deg)+1)
	for v, d := range deg {
		offsets[v+1] = offsets[v] + int64(d)
	}
	return offsets
}

// checkSymmetric verifies that a canonical (sorted, deduplicated)
// undirected CSR equals its transpose: every listed edge (v, w) has its
// (w, v) mirror. The sweep enumerates arcs in (v, w) order, so for each
// target w the sources arrive ascending and a single cursor per vertex
// matches them against Out(w); every cursor ends exactly full because
// the total arc count equals the total capacity.
func checkSymmetric(n int32, offsets []int64, adj []VertexID) error {
	ptr := make([]int64, n)
	for v := VertexID(0); v < VertexID(n); v++ {
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			p := offsets[w] + ptr[w]
			if p >= offsets[w+1] || adj[p] != v {
				return fmt.Errorf("graph: undirected graph is asymmetric: vertex %d lists neighbour %d, but %d's line does not list %d", v, w, w, v)
			}
			ptr[w]++
		}
	}
	return nil
}

// checkTranspose verifies that canonical directed in-lists are the
// exact transpose of the out-lists, using the same ascending-cursor
// sweep as checkSymmetric.
func checkTranspose(n int32, offsets []int64, adj []VertexID, inOffsets []int64, inAdj []VertexID) error {
	if len(adj) != len(inAdj) {
		return fmt.Errorf("graph: directed graph lists %d outgoing but %d incoming arcs", len(adj), len(inAdj))
	}
	ptr := make([]int64, n)
	for v := VertexID(0); v < VertexID(n); v++ {
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			p := inOffsets[w] + ptr[w]
			if p >= inOffsets[w+1] || inAdj[p] != v {
				return fmt.Errorf("graph: directed graph inconsistent: vertex %d lists out-neighbour %d, but %d's in-list does not list %d", v, w, w, v)
			}
			ptr[w]++
		}
	}
	return nil
}

// parseHeader scans leading comments and blank lines for the
// "V <n> directed|undirected" header and returns the byte offset of the
// first body line.
func parseHeader(data []byte) (n int, directed bool, bodyStart int, err error) {
	pos := 0
	for pos < len(data) {
		next := len(data)
		line := data[pos:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
			next = pos + nl + 1
		}
		t := bytes.TrimSpace(line)
		pos = next
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		fields := bytes.Fields(t)
		if len(fields) != 3 || !bytes.Equal(fields[0], []byte("V")) {
			return 0, false, 0, fmt.Errorf("graph: bad header %q", t)
		}
		v, ok := parseIDToken(fields[1])
		if !ok || v > 1<<31-1 {
			return 0, false, 0, fmt.Errorf("graph: bad vertex count %q in header", fields[1])
		}
		if v < 0 {
			return 0, false, 0, fmt.Errorf("graph: negative vertex count %d in header", v)
		}
		switch string(fields[2]) {
		case "directed":
			directed = true
		case "undirected":
			directed = false
		default:
			return 0, false, 0, fmt.Errorf("graph: bad directivity %q", fields[2])
		}
		return int(v), directed, pos, nil
	}
	return 0, false, 0, fmt.Errorf("graph: missing header")
}

// splitLineChunks cuts body into up to `workers` ranges, each ending on
// a line boundary.
func splitLineChunks(body []byte, workers int) [][2]int {
	if workers <= 1 || len(body) < workers {
		return [][2]int{{0, len(body)}}
	}
	target := len(body) / workers
	out := make([][2]int, 0, workers)
	start := 0
	for start < len(body) && len(out) < workers-1 {
		end := start + target
		if end >= len(body) {
			end = len(body)
		} else if nl := bytes.IndexByte(body[end:], '\n'); nl >= 0 {
			end += nl + 1
		} else {
			end = len(body)
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	if start < len(body) {
		out = append(out, [2]int{start, len(body)})
	}
	return out
}

var commaSep = []byte{','}

// maxLineBytes bounds a single vertex line so surveyed token counts
// always fit in int32.
const maxLineBytes = 1 << 30

// surveyChunk validates line structure in body[lo:hi] — field counts,
// vertex IDs, duplicates — and accumulates each line's neighbour token
// counts (a comma count, no digit parsing) into the shared degree
// arrays. It works in place on the input bytes; the only allocation is
// the duplicate bitmap.
func surveyChunk(body []byte, lo, hi int, n int32, directed bool, outDeg, inDeg []int32) chunkSurvey {
	res := chunkSurvey{seen: make([]uint64, (int(n)+63)/64)}
	fail := func(off int, err error) chunkSurvey {
		res.err, res.errOff = err, off
		return res
	}
	wantTabs := 1
	if directed {
		wantTabs = 2
	}
	fieldsErr := func(line []byte) error {
		tabs := bytes.Count(line, []byte{'\t'})
		return fmt.Errorf("vertex line has %d fields, want %d: %q", tabs+1, wantTabs+1, line)
	}
	countTokens := func(field []byte) int32 {
		if len(field) == 0 {
			return 0
		}
		return int32(bytes.Count(field, commaSep)) + 1
	}

	pos := lo
	for pos < hi {
		lineStart := pos
		line := body[pos:hi]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
			pos += nl + 1
		} else {
			pos = hi
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if len(line) > maxLineBytes {
			return fail(lineStart, fmt.Errorf("vertex line longer than %d bytes", maxLineBytes))
		}

		tab1 := bytes.IndexByte(line, '\t')
		if tab1 < 0 {
			return fail(lineStart, fieldsErr(line))
		}
		id, ok := parseIDToken(line[:tab1])
		if !ok {
			return fail(lineStart, fmt.Errorf("bad vertex id %q", line[:tab1]))
		}
		if id < 0 || id >= int64(n) {
			return fail(lineStart, fmt.Errorf("vertex id %d out of range [0,%d)", id, n))
		}
		v := VertexID(id)
		word, bit := uint(id)/64, uint64(1)<<(uint(id)%64)
		if res.seen[word]&bit != 0 {
			return fail(lineStart, fmt.Errorf("duplicate vertex line for id %d", id))
		}
		res.seen[word] |= bit
		res.lines++

		rest := line[tab1+1:]
		if directed {
			tab2 := bytes.IndexByte(rest, '\t')
			if tab2 < 0 {
				return fail(lineStart, fieldsErr(line))
			}
			inField, outField := rest[:tab2], rest[tab2+1:]
			if bytes.IndexByte(outField, '\t') >= 0 {
				return fail(lineStart, fieldsErr(line))
			}
			if c := countTokens(inField); c > 0 {
				atomic.AddInt32(&inDeg[v], c)
			}
			if c := countTokens(outField); c > 0 {
				atomic.AddInt32(&outDeg[v], c)
			}
		} else {
			if bytes.IndexByte(rest, '\t') >= 0 {
				return fail(lineStart, fieldsErr(line))
			}
			if c := countTokens(rest); c > 0 {
				atomic.AddInt32(&outDeg[v], c)
			}
		}
	}
	return res
}

// fillChunk re-scans the lines of body[lo:hi] — already validated by
// surveyChunk — decoding neighbour IDs directly into each vertex's CSR
// bucket. Buckets are owned by their vertex's (unique) line, so chunks
// write concurrently without coordination, and every write within a
// bucket is sequential.
func fillChunk(body []byte, lo, hi int, n int32, directed bool,
	offsets []int64, adj []VertexID, outFill []int32,
	inOffsets []int64, inAdj []VertexID, inFill []int32) chunkSurvey {

	var res chunkSurvey
	fail := func(off int, err error) chunkSurvey {
		res.err, res.errOff = err, off
		return res
	}

	pos := lo
	for pos < hi {
		lineStart := pos
		line := body[pos:hi]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
			pos += nl + 1
		} else {
			pos = hi
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}

		tab1 := bytes.IndexByte(line, '\t')
		id, _ := parseIDToken(line[:tab1])
		v := VertexID(id)

		rest := line[tab1+1:]
		if directed {
			tab2 := bytes.IndexByte(rest, '\t')
			wrote, err := fillList(rest[:tab2], n, v, inAdj[inOffsets[v]:inOffsets[v+1]])
			if err != nil {
				return fail(lineStart, err)
			}
			inFill[v] = int32(wrote)
			rest = rest[tab2+1:]
		}
		wrote, err := fillList(rest, n, v, adj[offsets[v]:offsets[v+1]])
		if err != nil {
			return fail(lineStart, err)
		}
		outFill[v] = int32(wrote)
	}
	return res
}

// fillList decodes one comma-separated neighbour list into dst in a
// single fused pass: digits accumulate directly from the input bytes,
// with no token slicing and no separate separator scan. Self-loop
// entries are skipped; the number of IDs written is returned. dst is
// sized from the survey's token count, so it cannot overflow.
func fillList(field []byte, n int32, v VertexID, dst []VertexID) (int, error) {
	if len(field) == 0 {
		return 0, nil
	}
	k := 0
	i := 0
	for {
		start := i
		x := int64(0)
		for i < len(field) {
			d := field[i] - '0'
			if d > 9 {
				break
			}
			x = x*10 + int64(d)
			i++
		}
		nd := i - start
		if nd == 0 || nd > 18 {
			// Rare path: a leading '-' is parsed through so negative IDs
			// report as out-of-range, the way any other ID would.
			if nd == 0 && i < len(field) && field[i] == '-' {
				j := i + 1
				y := int64(0)
				for j < len(field) {
					d := field[j] - '0'
					if d > 9 {
						break
					}
					y = y*10 + int64(d)
					j++
				}
				if j-i-1 >= 1 && j-i-1 <= 18 && (j == len(field) || field[j] == ',') {
					return k, fmt.Errorf("neighbour id %d out of range [0,%d)", -y, n)
				}
			}
			return k, badNeighbour(field, start)
		}
		if i < len(field) && field[i] != ',' {
			return k, badNeighbour(field, start)
		}
		if x >= int64(n) {
			return k, fmt.Errorf("neighbour id %d out of range [0,%d)", x, n)
		}
		if w := VertexID(x); w != v {
			dst[k] = w
			k++
		}
		if i == len(field) {
			return k, nil
		}
		i++ // past the comma
		if i == len(field) {
			// Trailing comma: an empty final token.
			return k, badNeighbour(field, i)
		}
	}
}

// badNeighbour formats the malformed token starting at start.
func badNeighbour(field []byte, start int) error {
	end := start
	for end < len(field) && field[end] != ',' && field[end] != '\t' {
		end++
	}
	return fmt.Errorf("bad neighbour %q", field[start:end])
}

// parseIDToken parses a decimal integer token: an optional leading '-'
// followed by 1-18 digits (anything longer is out of vertex-ID range
// regardless). No allocation, no intermediate string.
func parseIDToken(tok []byte) (int64, bool) {
	i := 0
	neg := false
	if len(tok) > 0 && tok[0] == '-' {
		neg = true
		i = 1
	}
	if i == len(tok) || len(tok)-i > 18 {
		return 0, false
	}
	var v int64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// readTextSequential is the single-goroutine reference reader the
// parallel path is tested against (see TestParallelReadEquivalence).
// It uses the line-at-a-time scanner and the sort-based sequential CSR
// build.
func readTextSequential(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	var n int
	var directed bool
	header := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var kind string
		if _, err := fmt.Sscanf(line, "V %d %s", &n, &kind); err != nil {
			return nil, fmt.Errorf("graph: bad header %q: %w", line, err)
		}
		switch kind {
		case "directed":
			directed = true
		case "undirected":
			directed = false
		default:
			return nil, fmt.Errorf("graph: bad directivity %q", kind)
		}
		if n < 0 {
			return nil, fmt.Errorf("graph: negative vertex count %d in header", n)
		}
		header = true
		break
	}
	if !header {
		return nil, fmt.Errorf("graph: missing header")
	}

	b := NewBuilder(n, directed)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		want := 2
		if directed {
			want = 3
		}
		if len(fields) != want {
			return nil, fmt.Errorf("graph: vertex line has %d fields, want %d: %q", len(fields), want, line)
		}
		id, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex id %q: %w", fields[0], err)
		}
		v := VertexID(id)
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: vertex id %d out of range [0,%d)", v, n)
		}
		outField := fields[1]
		if directed {
			outField = fields[2]
		}
		if outField == "" {
			continue
		}
		for _, tok := range strings.Split(outField, ",") {
			u, err := strconv.ParseInt(tok, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: bad neighbour %q: %w", tok, err)
			}
			w := VertexID(u)
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbour id %d out of range [0,%d)", w, n)
			}
			if directed || v < w {
				b.AddEdge(v, w)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.buildSequential(), nil
}

// TextSize returns the exact number of bytes WriteText would produce.
// The cluster model uses it as the on-disk dataset size (the paper's
// "dataset size (on disk)" characteristic) without materialising the
// file.
func TextSize(g *Graph) int64 {
	var n int64
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	n += int64(len(fmt.Sprintf("V %d %s\n", g.n, kind)))
	for v := VertexID(0); v < VertexID(g.n); v++ {
		n += int64(digits(int64(v))) + 1 // id + tab
		if g.directed {
			n += listSize(g.In(v)) + 1 // in-list + tab
		}
		n += listSize(g.Out(v)) + 1 // out-list + newline
	}
	return n
}

func listSize(list []VertexID) int64 {
	var n int64
	for i, x := range list {
		if i > 0 {
			n++
		}
		n += int64(digits(int64(x)))
	}
	return n
}

func digits(x int64) int {
	if x == 0 {
		return 1
	}
	d := 0
	if x < 0 {
		d++
		x = -x
	}
	for x > 0 {
		d++
		x /= 10
	}
	return d
}
