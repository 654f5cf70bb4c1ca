package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ndgraph/internal/rng"
)

// buildBySort is the comparison-sort builder Build replaced (filtered copy,
// sort.Slice by (Src, Dst), dedup, then CSR from the sorted list), kept as
// the reference the counting-sort Build is compared against.
func buildBySort(edges []Edge, opt Options) (*Graph, error) {
	n := opt.NumVertices
	maxEnd := -1
	for _, e := range edges {
		maxEnd = max(maxEnd, int(e.Src), int(e.Dst))
	}
	if n == 0 {
		n = maxEnd + 1
	} else if maxEnd >= n {
		return nil, fmt.Errorf("graph: endpoint %d exceeds vertex count %d", maxEnd, n)
	}
	work := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if opt.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		work = append(work, e)
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].Src != work[j].Src {
			return work[i].Src < work[j].Src
		}
		return work[i].Dst < work[j].Dst
	})
	if opt.Dedup {
		work = slices.Compact(work)
	}
	g := &Graph{
		n:      n,
		outOff: make([]int64, n+1),
		outDst: make([]uint32, len(work)),
		inOff:  make([]int64, n+1),
		inSrc:  make([]uint32, len(work)),
		inEdge: make([]uint32, len(work)),
	}
	for i, e := range work {
		g.outOff[e.Src+1]++
		g.outDst[i] = e.Dst
		g.inOff[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	cursor := slices.Clone(g.inOff[:n])
	for i, e := range work {
		slot := cursor[e.Dst]
		cursor[e.Dst]++
		g.inSrc[slot] = e.Src
		g.inEdge[slot] = uint32(i)
	}
	return g, nil
}

// randomMultigraph draws m edges over the first span vertices with self-loops
// and parallel edges both likely.
func randomMultigraph(r *rng.Xoshiro256StarStar, span, m int) []Edge {
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{Src: uint32(r.Intn(span)), Dst: uint32(r.Intn(span))}
		switch r.Intn(8) {
		case 0:
			es[i].Dst = es[i].Src
		case 1:
			if i > 0 {
				es[i] = es[r.Intn(i)]
			}
		}
	}
	return es
}

func TestBuildMatchesSortBuilder(t *testing.T) {
	r := rng.New(14)
	sorted := func(es []Edge) {
		slices.SortFunc(es, func(a, b Edge) int {
			if a.Src != b.Src {
				return int(a.Src) - int(b.Src)
			}
			return int(a.Dst) - int(b.Dst)
		})
	}
	orders := []struct {
		name    string
		reorder func([]Edge)
	}{
		{"sorted", sorted},
		{"reversed", func(es []Edge) { sorted(es); slices.Reverse(es) }},
		{"shuffled", func(es []Edge) { r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] }) }},
	}

	for _, shape := range []struct{ span, m, numVertices int }{
		{1, 0, 0},     // empty input, empty graph
		{1, 0, 9},     // empty input, isolated vertices
		{1, 5, 0},     // one vertex, only self-loops
		{7, 40, 0},    // dense multigraph, N from the endpoints
		{60, 300, 0},  //
		{60, 300, 90}, // NumVertices larger than any endpoint
		{400, 2000, 400},
		{3000, 1500, 0}, // sparse: most rows empty
	} {
		for _, order := range orders {
			es := randomMultigraph(r, shape.span, shape.m)
			order.reorder(es)
			for mask := 0; mask < 4; mask++ {
				opt := Options{NumVertices: shape.numVertices, DropSelfLoops: mask&1 != 0, Dedup: mask&2 != 0}
				label := fmt.Sprintf("span=%d m=%d %s %+v", shape.span, shape.m, order.name, opt)
				input := slices.Clone(es)
				got, err := Build(es, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(es, input) {
					t.Fatalf("%s: Build modified its input", label)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := buildBySort(es, opt)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				if got.n != want.n ||
					!slices.Equal(got.outOff, want.outOff) || !slices.Equal(got.outDst, want.outDst) ||
					!slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.inSrc, want.inSrc) ||
					!slices.Equal(got.inEdge, want.inEdge) {
					t.Fatalf("%s: CSR differs from the sort-based builder\n got %+v\nwant %+v", label, got, want)
				}
			}
		}
	}

	for _, tc := range []struct {
		edges []Edge
		opt   Options
	}{
		{[]Edge{{0, 11}, {30, 2}, {4, 4}}, Options{NumVertices: 10}},
		{[]Edge{{12, 12}}, Options{NumVertices: 10, DropSelfLoops: true}},
		{nil, Options{NumVertices: -1}},
	} {
		_, err := Build(tc.edges, tc.opt)
		_, wantErr := buildBySort(tc.edges, tc.opt)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%v %+v: got %v, want %v", tc.edges, tc.opt, err, wantErr)
		}
	}
}

func TestUndirectedMatchesDoubledEdgeList(t *testing.T) {
	g := mustBuild(t, randomMultigraph(rng.New(15), 50, 400), Options{})
	var doubled []Edge
	for _, e := range g.Edges() {
		doubled = append(doubled, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	want := mustBuild(t, doubled, Options{NumVertices: g.N(), Dedup: true})
	u := g.Undirected()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(u.Edges(), want.Edges()) {
		t.Fatal("Undirected differs from Build over the doubled edge list")
	}
}

// BenchmarkBuild builds a 1M-edge graph of average degree 10 from canonical
// (the order every .bin file has) and from shuffled input.
func BenchmarkBuild(b *testing.B) {
	const n, m = 100_000, 1_000_000
	r := rng.New(1)
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	g, err := Build(es, Options{NumVertices: n})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		edges []Edge
	}{{"sorted", g.Edges()}, {"shuffled", es}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(8 * m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(in.edges, Options{NumVertices: n}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}
