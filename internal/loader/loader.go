// Package loader reads and writes graphs in the interchange formats the
// paper's datasets ship in: SNAP-style whitespace edge lists (web-BerkStan,
// web-Google, soc-LiveJournal1), Matrix Market coordinate format (cage15,
// from the UF Sparse Matrix Collection), plus a compact binary format for
// fast round-tripping of generated graphs.
package loader

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ndgraph/internal/fsafe"
	"ndgraph/internal/graph"
)

// MaxVertices caps the vertex-set size any loader will construct. A single
// hostile line ("0 4294967295") or a lying binary header would otherwise
// make graph.Build allocate tens of gigabytes of CSR offsets before any
// real data is validated. The default admits every dataset in the paper
// (soc-LiveJournal1, the largest, has ~4.8M vertices) with ample headroom;
// tests and fuzz targets lower it to keep adversarial inputs cheap.
var MaxVertices = 1 << 27

// maxEdgePrealloc bounds how many edge records a loader reserves on the
// strength of an unverified header count alone. Real edges past the
// reservation just grow the slice as the bytes actually arrive, so honest
// files pay at most a few reallocations while a forged count of 2^32-1
// edges allocates nothing it cannot back with input.
const maxEdgePrealloc = 1 << 20

// ReadEdgeList parses a SNAP-style edge list: one "src dst" pair per line,
// '#' or '%' lines are comments, blank lines ignored. Vertex IDs must be
// non-negative integers below MaxVertices; the vertex count is 1 + the
// maximum ID seen.
func ReadEdgeList(r io.Reader, opt graph.Options) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		a, rest := nextField(sc.Bytes())
		if len(a) == 0 || a[0] == '#' || a[0] == '%' {
			continue
		}
		b, _ := nextField(rest)
		if len(b) == 0 {
			return nil, fmt.Errorf("loader: line %d: want at least 2 fields, got %q", lineNo, bytes.TrimSpace(sc.Bytes()))
		}
		src, err := parseVertex(a)
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %v", lineNo, err)
		}
		dst, err := parseVertex(b)
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %v", lineNo, err)
		}
		edges = appendEdge(edges, graph.Edge{Src: src, Dst: dst})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	return graph.Build(edges, opt)
}

// appendEdge appends e, doubling a full list: append alone grows a large
// slice by a quarter, which copies a list of unknown length about four times
// over while it fills.
func appendEdge(edges []graph.Edge, e graph.Edge) []graph.Edge {
	if len(edges) == cap(edges) {
		edges = slices.Grow(edges, max(len(edges), 1024))
	}
	return append(edges, e)
}

// nextField is the field scanner of both text formats: it returns the first
// whitespace-delimited field of line and what follows it, without copying;
// the field is empty when line holds only whitespace. Whitespace is what
// strings.Fields takes it to be.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) {
		n := spaceLen(line, i)
		if n == 0 {
			break
		}
		i += n
	}
	j := i
	for j < len(line) && spaceLen(line, j) == 0 {
		j++
	}
	return line[i:j], line[j:]
}

// spaceLen returns the byte length of the white-space character at b[i], or
// 0 if anything else starts there. Small enough to inline, so ASCII input
// costs one table lookup per byte.
func spaceLen(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceLen(b[i:])
}

var asciiSpace = [utf8.RuneSelf]uint8{' ': 1, '\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1}

func wideSpaceLen(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// parseDecimal is the per-field fast path: the value of a plain run of
// ASCII digits that fits a uint32. Anything else (a sign, a letter, an
// overflow) reports false and goes to strconv for its value or its error.
func parseDecimal(f []byte) (uint32, bool) {
	if len(f) == 0 || len(f) > 10 {
		return 0, false
	}
	var v uint64
	for _, c := range f {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return uint32(v), v <= math.MaxUint32
}

func parseVertex(f []byte) (uint32, error) {
	v, ok := parseDecimal(f)
	if !ok {
		wide, err := strconv.ParseUint(string(f), 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad vertex id %q: %v", f, err)
		}
		v = uint32(wide)
	}
	if uint64(v) >= uint64(MaxVertices) {
		return 0, fmt.Errorf("vertex id %d exceeds MaxVertices (%d)", v, MaxVertices)
	}
	return v, nil
}

// WriteEdgeList writes g as a SNAP-style edge list with a header comment.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ndgraph edge list: %d vertices, %d edges\n", g.N(), g.M()); err != nil {
		return err
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		for _, d := range g.OutNeighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a Matrix Market coordinate-format file
// (%%MatrixMarket matrix coordinate ... header) into a directed graph:
// entry (i, j) becomes edge (i-1 → j-1); values, if present, are ignored.
// Symmetric matrices are expanded to both directions.
func ReadMatrixMarket(r io.Reader, opt graph.Options) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("loader: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("loader: unsupported MatrixMarket header %q", sc.Text())
	}
	symmetric := len(header) >= 5 && (header[4] == "symmetric" || header[4] == "skew-symmetric")

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("loader: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("loader: MatrixMarket size %dx%d nnz %d invalid", rows, cols, nnz)
	}
	if rows > MaxVertices || cols > MaxVertices {
		return nil, fmt.Errorf("loader: MatrixMarket size %dx%d exceeds MaxVertices (%d)", rows, cols, MaxVertices)
	}
	n := rows
	if cols > n {
		n = cols
	}
	if opt.NumVertices == 0 {
		opt.NumVertices = n
	}
	// Trust the declared nnz only up to maxEdgePrealloc; a forged count
	// must not reserve memory the entries below cannot justify.
	prealloc := nnz
	if prealloc > maxEdgePrealloc {
		prealloc = maxEdgePrealloc
	}
	edges := make([]graph.Edge, 0, prealloc)
	entries := 0
	for sc.Scan() {
		a, rest := nextField(sc.Bytes())
		if len(a) == 0 || a[0] == '%' {
			continue
		}
		b, _ := nextField(rest)
		i, ok1 := parseIndex(a)
		j, ok2 := parseIndex(b)
		if !ok1 || !ok2 || i < 1 || j < 1 {
			return nil, fmt.Errorf("loader: bad MatrixMarket entry %q", bytes.TrimSpace(sc.Bytes()))
		}
		// Entries outside the declared dimensions would truncate through
		// uint32 below and could land on a silently wrong edge.
		if i > rows || j > cols {
			return nil, fmt.Errorf("loader: MatrixMarket entry (%d, %d) outside declared %dx%d", i, j, rows, cols)
		}
		entries++
		edges = appendEdge(edges, graph.Edge{Src: uint32(i - 1), Dst: uint32(j - 1)})
		if symmetric && i != j {
			edges = appendEdge(edges, graph.Edge{Src: uint32(j - 1), Dst: uint32(i - 1)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	// A truncated download must not load as a smaller graph.
	if entries != nnz {
		return nil, fmt.Errorf("loader: MatrixMarket size line declares %d entries, file has %d", nnz, entries)
	}
	return graph.Build(edges, opt)
}

// parseIndex reads one MatrixMarket row or column index the way
// strconv.Atoi does; an empty field is not a number.
func parseIndex(f []byte) (int, bool) {
	if v, ok := parseDecimal(f); ok {
		return int(v), true
	}
	v, err := strconv.Atoi(string(f))
	return v, err == nil
}

// Binary format: magic, version, n, m, then m (src, dst) uint32 pairs,
// little-endian, followed (since version 2) by a CRC32 (IEEE) trailer over
// everything before it. Stable across platforms. The checksum turns a
// truncated or torn file into a load-time error instead of a silently
// wrong graph.
const (
	binMagic   = 0x4e444752 // "NDGR"
	binVersion = 2

	// binBlockEdges is how many edge records WriteBinary and ReadBinary
	// move, checksum and encode or decode at a time (64 KiB).
	binBlockEdges = 8192
)

// WriteBinary writes g in ndgraph binary format (version 2, checksummed).
func WriteBinary(w io.Writer, g *graph.Graph) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, 8*binBlockEdges)
	buf = le.AppendUint32(buf, binMagic)
	buf = le.AppendUint32(buf, binVersion)
	buf = le.AppendUint32(buf, uint32(g.N()))
	buf = le.AppendUint32(buf, uint32(g.M()))
	sum := uint32(0)
	for v := uint32(0); int(v) < g.N(); v++ {
		for _, d := range g.OutNeighbors(v) {
			if len(buf) == cap(buf) {
				sum = crc32.Update(sum, crc32.IEEETable, buf)
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = le.AppendUint32(le.AppendUint32(buf, v), d)
		}
	}
	sum = crc32.Update(sum, crc32.IEEETable, buf)
	_, err := w.Write(le.AppendUint32(buf, sum))
	return err
}

// readRecords fills buf, a whole number of size-byte records, from r and
// returns how many complete records arrived. Input that ends exactly
// between two records is io.EOF, inside one io.ErrUnexpectedEOF.
func readRecords(r io.Reader, buf []byte, size int) (int, error) {
	got, err := io.ReadFull(r, buf)
	if err == io.ErrUnexpectedEOF && got%size == 0 {
		err = io.EOF
	}
	return got / size, err
}

// ReadBinary reads a graph written by WriteBinary. Version-2 files carry a
// CRC32 trailer, verified here; version-1 files (no trailer) still load.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	le := binary.LittleEndian
	buf := make([]byte, 8*binBlockEdges)
	if _, err := readRecords(r, buf[:16], 4); err != nil {
		return nil, fmt.Errorf("loader: binary header: %v", err)
	}
	magic, version := le.Uint32(buf), le.Uint32(buf[4:])
	if magic != binMagic {
		return nil, fmt.Errorf("loader: bad magic %#x", magic)
	}
	if version != 1 && version != binVersion {
		return nil, fmt.Errorf("loader: unsupported binary version %d", version)
	}
	n, m := int(le.Uint32(buf[8:])), int(le.Uint32(buf[12:]))
	if n > MaxVertices {
		return nil, fmt.Errorf("loader: binary header claims %d vertices, exceeds MaxVertices (%d)", n, MaxVertices)
	}
	sum := crc32.Update(0, crc32.IEEETable, buf[:16])
	// The header's m is unverified until the checksum at the end, so
	// reserve at most maxEdgePrealloc records up front and let real input
	// grow the slice past that; a forged count fails at EOF instead of
	// allocating gigabytes first.
	edges := make([]graph.Edge, 0, min(m, maxEdgePrealloc))
	for len(edges) < m {
		got, err := readRecords(r, buf[:8*min(m-len(edges), binBlockEdges)], 8)
		block := buf[:8*got]
		// Input that has arrived justifies room for as much again, up to
		// the declared count.
		if len(edges)+got > cap(edges) {
			edges = slices.Grow(edges, min(m-len(edges), max(len(edges), got)))
		}
		sum = crc32.Update(sum, crc32.IEEETable, block)
		for ; len(block) > 0; block = block[8:] {
			e := graph.Edge{Src: le.Uint32(block), Dst: le.Uint32(block[4:])}
			// Endpoints must respect the header's vertex count: WriteBinary
			// never emits anything else, and an out-of-range endpoint with
			// n == 0 would otherwise make graph.Build size the graph off the
			// bogus endpoint.
			if int(e.Src) >= n || int(e.Dst) >= n {
				return nil, fmt.Errorf("loader: binary edge %d (%d → %d) outside %d vertices", len(edges), e.Src, e.Dst, n)
			}
			edges = append(edges, e)
		}
		if err != nil {
			return nil, fmt.Errorf("loader: binary edge %d: %v (file truncated?)", len(edges), err)
		}
	}
	if version >= 2 {
		if _, err := readRecords(r, buf[:4], 4); err != nil {
			return nil, fmt.Errorf("loader: binary checksum: %v (file truncated?)", err)
		}
		if got := le.Uint32(buf); got != sum {
			return nil, fmt.Errorf("loader: binary checksum mismatch (file %#x, computed %#x): file is truncated or corrupted", got, sum)
		}
	}
	return graph.Build(edges, graph.Options{NumVertices: n})
}

// LoadFile reads a graph from path, selecting the format by extension:
// .bin → binary, .mtx → Matrix Market, anything else → edge list. A
// trailing .gz is transparently decompressed first (e.g. web-Google.txt.gz
// exactly as SNAP distributes it).
func LoadFile(path string, opt graph.Options) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	name := path
	if strings.HasSuffix(name, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
		name = strings.TrimSuffix(name, ".gz")
	}
	switch {
	case strings.HasSuffix(name, ".bin"):
		return ReadBinary(r)
	case strings.HasSuffix(name, ".mtx"):
		return ReadMatrixMarket(r, opt)
	default:
		return ReadEdgeList(r, opt)
	}
}

// SaveFile writes a graph to path, selecting the format by extension the
// same way LoadFile does (.mtx is not supported for writing). The write is
// atomic — the data lands in a temp file that is fsynced and renamed over
// path — so a crash mid-save never leaves a half-written graph under the
// destination name.
func SaveFile(path string, g *graph.Graph) error {
	if strings.HasSuffix(path, ".mtx") {
		return fmt.Errorf("loader: writing MatrixMarket is not supported")
	}
	return fsafe.WriteFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".bin") {
			return WriteBinary(w, g)
		}
		return WriteEdgeList(w, g)
	})
}
