package loader

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

// multigraph builds a graph with exactly m edges over n vertices (parallel
// edges are kept), so a binary file of any record count can be produced.
func multigraph(tb testing.TB, n, m int) *graph.Graph {
	tb.Helper()
	es := make([]graph.Edge, m)
	for i := range es {
		es[i] = graph.Edge{Src: uint32(i % n), Dst: uint32(i * 31 % n)}
	}
	g, err := graph.Build(es, graph.Options{NumVertices: n})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func binaryBytes(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// goldenGraph is the graph testdata/golden_v2.bin holds; the file was
// written by WriteBinary as of the commit before the block-wise rewrite.
func goldenGraph(t *testing.T) (*graph.Graph, []byte) {
	t.Helper()
	var es []graph.Edge
	for i := uint32(0); i < 300; i++ {
		es = append(es, graph.Edge{Src: i * 7 % 97, Dst: i * i * 13 % 101})
	}
	g, err := graph.Build(es, graph.Options{NumVertices: 128})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/golden_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	return g, golden
}

func TestBinaryGolden(t *testing.T) {
	g, golden := goldenGraph(t)
	if got := binaryBytes(t, g); !bytes.Equal(got, golden) {
		t.Fatalf("WriteBinary output (%d bytes) differs from testdata/golden_v2.bin (%d bytes)", len(got), len(golden))
	}
	loaded, err := ReadBinary(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, loaded)
}

// The writer's first block also carries the 16-byte header, so its block
// boundaries fall two records before the reader's.
func TestBinaryBlockBoundaryRoundTrips(t *testing.T) {
	const B = binBlockEdges
	for _, m := range []int{0, 1, B - 3, B - 2, B - 1, B, B + 1, 3*B + 7} {
		g := multigraph(t, 64, m)
		data := binaryBytes(t, g)
		if want := 16 + 8*m + 4; len(data) != want {
			t.Fatalf("m=%d: file is %d bytes, want %d", m, len(data), want)
		}
		if sum := binary.LittleEndian.Uint32(data[len(data)-4:]); sum != crc32.ChecksumIEEE(data[:len(data)-4]) {
			t.Fatalf("m=%d: trailer %#x is not the CRC32 of the body", m, sum)
		}
		loaded, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		assertSameGraph(t, g, loaded)
	}
}

// Cutting a file anywhere must give the error that names where the input
// ran out — never a graph.
func TestBinaryTruncatedAtEveryOffset(t *testing.T) {
	_, data := goldenGraph(t)
	m := (len(data) - 20) / 8
	// The cause is EOF when the cut falls between two records of the region
	// it is in, unexpected EOF inside one.
	cause := func(off, size int) string {
		if off%size == 0 {
			return "EOF"
		}
		return "unexpected EOF"
	}
	for cut := 0; cut < len(data); cut++ {
		var want string
		switch body := cut - 16; {
		case cut < 16:
			want = "loader: binary header: " + cause(cut, 4)
		case body < 8*m:
			want = fmt.Sprintf("loader: binary edge %d: %s (file truncated?)", body/8, cause(body, 8))
		default:
			want = fmt.Sprintf("loader: binary checksum: %s (file truncated?)", cause(body-8*m, 4))
		}
		g, err := ReadBinary(bytes.NewReader(data[:cut]))
		if g != nil || err == nil || err.Error() != want {
			t.Fatalf("cut at %d of %d: got graph %v, error %v; want error %q", cut, len(data), g != nil, err, want)
		}
	}
}

func TestBinaryCorruptionInEveryBlock(t *testing.T) {
	const B, n = binBlockEdges, 64
	data := binaryBytes(t, multigraph(t, n, 3*B+7))
	le := binary.LittleEndian
	for _, edge := range []int{5, B - 1, B, B + B/2, 3 * B, 3*B + 6} {
		at := 16 + 8*edge

		// An endpoint outside the vertex range is reported with its index
		// before the checksum is ever looked at.
		bad := bytes.Clone(data)
		le.PutUint32(bad[at:], n)
		want := fmt.Sprintf("loader: binary edge %d (%d → %d) outside %d vertices", edge, n, le.Uint32(bad[at+4:]), n)
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || err.Error() != want {
			t.Fatalf("edge %d out of range: got %v, want %q", edge, err, want)
		}

		// A flipped bit that stays in range (n is even) is the checksum's.
		bad = bytes.Clone(data)
		bad[at+4] ^= 1
		want = fmt.Sprintf("loader: binary checksum mismatch (file %#x, computed %#x): file is truncated or corrupted",
			le.Uint32(bad[len(bad)-4:]), crc32.ChecksumIEEE(bad[:len(bad)-4]))
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || err.Error() != want {
			t.Fatalf("edge %d bit flip: got %v, want %q", edge, err, want)
		}
	}
}

// ReadBinary allocates its block buffer, the edge list and the CSR arrays:
// a fixed number of allocations, whatever the record count (below
// maxEdgePrealloc, past which the unverified edge list grows as it fills).
func TestReadBinaryAllocsIndependentOfM(t *testing.T) {
	allocs := func(m int) float64 {
		data := binaryBytes(t, multigraph(t, 64, m))
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(binBlockEdges/2), allocs(4*binBlockEdges+3)
	if small != large || small > 12 {
		t.Fatalf("ReadBinary allocates %v times for %d edges, %v times for %d", small, binBlockEdges/2, large, 4*binBlockEdges+3)
	}
}

// A MatrixMarket file cut short (or padded) must not load as a different
// graph than its size line declares.
func TestReadMatrixMarketEntryCountMismatch(t *testing.T) {
	const header = "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n"
	for name, tc := range map[string]struct{ entries, want string }{
		"short": {"2 1\n3 1\n", "loader: MatrixMarket size line declares 3 entries, file has 2"},
		"long":  {"2 1\n3 1\n4 2\n4 4\n", "loader: MatrixMarket size line declares 3 entries, file has 4"},
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(header+tc.entries), graph.Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", name, err, tc.want)
		}
	}
	// Symmetric expansion does not count: three entries, five edges.
	g, err := ReadMatrixMarket(strings.NewReader(header+"2 1\n3 1\n4 4\n"), graph.Options{})
	if err != nil || g.M() != 5 {
		t.Fatalf("exact count: graph %v, error %v", g, err)
	}
}

// nextField must split exactly where strings.Fields does, including at
// multi-byte spaces and around invalid UTF-8.
func TestNextFieldMatchesStringsFields(t *testing.T) {
	lines := []string{
		"", " ", "0 1", "\t 12\t\t7 \r", "a", " a", "a ", "1\v2\f3",
		"1\u00a02", "1\u00852", "\u2003 1 \u2028 2\u3000", "1\u200b2", // U+200B is no space
		"1\xc22", "\xa0 1 2", "\xe2\x80 1", "\u00e9 1", "1\u00e9 2",
	}
	r := rng.New(3)
	alphabet := []byte(" \t\v\r09a#%\xc2\xa0\x85\xe2\x80\x83")
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(12))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		lines = append(lines, string(b))
	}
	for _, line := range lines {
		var got []string
		for rest := []byte(line); ; {
			var f []byte
			if f, rest = nextField(rest); len(f) == 0 {
				break
			}
			got = append(got, string(f))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Fatalf("%q: fields %q, strings.Fields gives %q", line, got, want)
		}
	}
}

func TestTextParseErrorMessages(t *testing.T) {
	for in, want := range map[string]string{
		"0 1\n  7 \n":           `loader: line 2: want at least 2 fields, got "7"`,
		"a b\n":                 `loader: line 1: bad vertex id "a": strconv.ParseUint: parsing "a": invalid syntax`,
		"1 -2\n":                `loader: line 1: bad vertex id "-2": strconv.ParseUint: parsing "-2": invalid syntax`,
		"+1 2\n":                `loader: line 1: bad vertex id "+1": strconv.ParseUint: parsing "+1": invalid syntax`,
		"# c\n\n4294967296 1\n": `loader: line 3: bad vertex id "4294967296": strconv.ParseUint: parsing "4294967296": value out of range`,
		"99999999999 1\n":       `loader: line 1: bad vertex id "99999999999": strconv.ParseUint: parsing "99999999999": value out of range`,
		"1 4294967295\n":        fmt.Sprintf("loader: line 1: vertex id 4294967295 exceeds MaxVertices (%d)", MaxVertices),
		"1 x\n":                 `loader: line 1: bad vertex id "x": strconv.ParseUint: parsing "x": invalid syntax`,
	} {
		if _, err := ReadEdgeList(strings.NewReader(in), graph.Options{}); err == nil || err.Error() != want {
			t.Errorf("edge list %q: got %v, want %s", in, err, want)
		}
	}
	g, err := ReadEdgeList(strings.NewReader("0000000000000007 1\n"), graph.Options{})
	if err != nil || g.N() != 8 {
		t.Fatalf("zero-padded id: graph %v, error %v", g, err)
	}

	const header = "%%MatrixMarket matrix coordinate real general\n3 3 1\n"
	for in, want := range map[string]string{
		"  1 \n":          `loader: bad MatrixMarket entry "1"`,
		"1 x 0.5\n":       `loader: bad MatrixMarket entry "1 x 0.5"`,
		"0 1\n":           `loader: bad MatrixMarket entry "0 1"`,
		"1 -1\n":          `loader: bad MatrixMarket entry "1 -1"`,
		"1 4\n":           "loader: MatrixMarket entry (1, 4) outside declared 3x3",
		"1 99999999999\n": "loader: MatrixMarket entry (1, 99999999999) outside declared 3x3",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(header+in), graph.Options{}); err == nil || err.Error() != want {
			t.Errorf("MatrixMarket %q: got %v, want %s", in, err, want)
		}
	}
	if g, err := ReadMatrixMarket(strings.NewReader(header+"+2 03 1e9\n"), graph.Options{}); err != nil || g.M() != 1 {
		t.Fatalf("signed and padded indices: graph %v, error %v", g, err)
	}
}

// The three benchmarks below move a 1M-edge graph (8 MB binary, ~13 MB as
// text) so the block size and the allocator both matter.
func benchGraph(b *testing.B) *graph.Graph {
	return multigraph(b, 100_000, 1_000_000)
}

func reportEdges(b *testing.B, m int) {
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkReadBinary(b *testing.B) {
	g := benchGraph(b)
	data := binaryBytes(b, g)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.M())
}

func BenchmarkWriteBinary(b *testing.B) {
	g := benchGraph(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(binaryBytes(b, g))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.M())
}

func BenchmarkReadEdgeList(b *testing.B) {
	g := benchGraph(b)
	var text bytes.Buffer
	if err := WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(text.Bytes()), graph.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportEdges(b, g.M())
}
