package graph

import (
	"testing"
	"testing/quick"

	"ndgraph/internal/rng"
)

func mustBuild(t *testing.T, edges []Edge, opt Options) *Graph {
	t.Helper()
	g, err := Build(edges, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild(t, nil, Options{})
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has N=%d M=%d", g.N(), g.M())
	}
}

func TestBuildSmall(t *testing.T) {
	//   0 → 1 → 2
	//   0 → 2    2 → 0
	g := mustBuild(t, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 0}}, Options{})
	if g.N() != 3 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("InNeighbors(2) = %v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 || g.Degree(0) != 3 {
		t.Fatal("degrees wrong")
	}
}

func TestCanonicalIndexConsistency(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 0}, {2, 1}}, Options{})
	// Walk in-adjacency; each in-edge index must match out-adjacency slot.
	for v := uint32(0); int(v) < g.N(); v++ {
		srcs := g.InNeighbors(v)
		idxs := g.InEdgeIndices(v)
		for k := range srcs {
			s, d := g.EdgeEndpoints(idxs[k])
			if s != srcs[k] || d != v {
				t.Fatalf("edge %d: EdgeEndpoints = (%d,%d), want (%d,%d)", idxs[k], s, d, srcs[k], v)
			}
		}
	}
}

func TestFindEdge(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {0, 3}, {3, 0}}, Options{NumVertices: 5})
	e, ok := g.FindEdge(0, 3)
	if !ok {
		t.Fatal("FindEdge(0,3) not found")
	}
	if s, d := g.EdgeEndpoints(e); s != 0 || d != 3 {
		t.Fatalf("EdgeEndpoints(%d) = (%d,%d)", e, s, d)
	}
	if _, ok := g.FindEdge(1, 0); ok {
		t.Fatal("FindEdge(1,0) found nonexistent edge")
	}
	if _, ok := g.FindEdge(4, 4); ok {
		t.Fatal("FindEdge on isolated vertex found an edge")
	}
}

func TestNumVerticesOption(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}}, Options{NumVertices: 10})
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
	if _, err := Build([]Edge{{0, 11}}, Options{NumVertices: 10}); err == nil {
		t.Fatal("Build accepted endpoint beyond NumVertices")
	}
}

func TestDropSelfLoops(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 0}, {0, 1}, {1, 1}}, Options{DropSelfLoops: true})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	g2 := mustBuild(t, []Edge{{0, 0}, {0, 1}}, Options{})
	if g2.M() != 2 {
		t.Fatalf("without DropSelfLoops M = %d, want 2", g2.M())
	}
}

func TestDedup(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 0}}, Options{Dedup: true})
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	g2 := mustBuild(t, []Edge{{0, 1}, {0, 1}}, Options{})
	if g2.M() != 2 {
		t.Fatalf("parallel edges without Dedup: M = %d, want 2", g2.M())
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	in := []Edge{{5, 0}, {1, 2}, {0, 3}}
	orig := append([]Edge(nil), in...)
	mustBuild(t, in, Options{})
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("Build reordered the caller's slice")
		}
	}
}

func TestReverse(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 2}, {0, 2}}, Options{})
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.M() != g.M() || r.N() != g.N() {
		t.Fatal("Reverse changed sizes")
	}
	if _, ok := r.FindEdge(1, 0); !ok {
		t.Fatal("Reverse missing flipped edge (1,0)")
	}
	rr := r.Reverse()
	for v := uint32(0); int(v) < g.N(); v++ {
		a, b := g.OutNeighbors(v), rr.OutNeighbors(v)
		if len(a) != len(b) {
			t.Fatalf("double reverse differs at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("double reverse differs at %d", v)
			}
		}
	}
}

func TestUndirected(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 2}}, Options{NumVertices: 3})
	u := g.Undirected()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.M() != 4 {
		t.Fatalf("Undirected M = %d, want 4", u.M())
	}
	for _, pair := range [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if _, ok := u.FindEdge(pair[0], pair[1]); !ok {
			t.Fatalf("Undirected missing edge %v", pair)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{3, 1}, {0, 2}, {2, 2}, {1, 3}}
	g := mustBuild(t, in, Options{})
	g2 := mustBuild(t, g.Edges(), Options{NumVertices: g.N()})
	if g2.M() != g.M() || g2.N() != g.N() {
		t.Fatal("round trip changed sizes")
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		a, b := g.OutNeighbors(v), g2.OutNeighbors(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("round trip changed adjacency")
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := mustBuild(t, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 2}}, Options{NumVertices: 4})
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 4 {
		t.Fatalf("stats sizes: %+v", s)
	}
	if s.SelfLoops != 1 {
		t.Fatalf("SelfLoops = %d, want 1", s.SelfLoops)
	}
	if s.Isolated != 1 {
		t.Fatalf("Isolated = %d, want 1 (vertex 3)", s.Isolated)
	}
	if s.ZeroOutDeg != 1 {
		t.Fatalf("ZeroOutDeg = %d, want 1", s.ZeroOutDeg)
	}
	// Reciprocal pairs: (0,1)/(1,0) and the self-loop (2,2) which is its own
	// reverse; 3 of 4 edges have a reverse.
	if s.Reciprocity != 0.75 {
		t.Fatalf("Reciprocity = %v, want 0.75", s.Reciprocity)
	}
}

// Property: for random edge lists, the dual-CSR construction preserves the
// exact multiset of edges and passes Validate.
func TestBuildPropertyRandom(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 2000)
		r := rng.New(seed)
		es := make([]Edge, m)
		counts := map[Edge]int{}
		for i := range es {
			e := Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
			es[i] = e
			counts[e]++
		}
		g, err := Build(es, Options{NumVertices: n})
		if err != nil || g.Validate() != nil {
			return false
		}
		if g.M() != m {
			return false
		}
		got := map[Edge]int{}
		for _, e := range g.Edges() {
			got[e]++
		}
		if len(got) != len(counts) {
			return false
		}
		for e, c := range counts {
			if got[e] != c {
				return false
			}
		}
		// In-degree sum must equal out-degree sum must equal m.
		din, dout := 0, 0
		for v := uint32(0); int(v) < n; v++ {
			din += g.InDegree(v)
			dout += g.OutDegree(v)
		}
		return din == m && dout == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: OutNeighbors and InNeighbors are sorted ascending for every
// vertex of a random graph (the engine's small-label-first iteration order
// relies on this).
func TestAdjacencySortedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50
		es := make([]Edge, 500)
		for i := range es {
			es[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
		}
		g, err := Build(es, Options{NumVertices: n})
		if err != nil {
			return false
		}
		for v := uint32(0); int(v) < n; v++ {
			for _, nbrs := range [][]uint32{g.OutNeighbors(v), g.InNeighbors(v)} {
				for i := 1; i < len(nbrs); i++ {
					if nbrs[i-1] > nbrs[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeEndpointsAllEdges(t *testing.T) {
	r := rng.New(77)
	es := make([]Edge, 300)
	for i := range es {
		es[i] = Edge{Src: uint32(r.Intn(40)), Dst: uint32(r.Intn(40))}
	}
	g := mustBuild(t, es, Options{NumVertices: 40})
	for v := uint32(0); int(v) < g.N(); v++ {
		lo, hi := g.OutEdgeIndex(v)
		nbrs := g.OutNeighbors(v)
		for k := lo; k < hi; k++ {
			s, d := g.EdgeEndpoints(k)
			if s != v || d != nbrs[k-lo] {
				t.Fatalf("EdgeEndpoints(%d) = (%d,%d), want (%d,%d)", k, s, d, v, nbrs[k-lo])
			}
		}
	}
}

func BenchmarkOutNeighborScan(b *testing.B) {
	r := rng.New(2)
	const n, m = 10000, 100000
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	g, err := Build(es, Options{NumVertices: n})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint32
		for v := uint32(0); int(v) < n; v++ {
			for _, d := range g.OutNeighbors(v) {
				sum += d
			}
		}
		_ = sum
	}
}
