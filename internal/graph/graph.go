// Package graph provides the immutable in-memory graph representation used
// by the ndgraph engine: a directed graph stored as paired CSR (compressed
// sparse row) adjacency in both directions, with a canonical edge index that
// unifies the two views.
//
// The paper's system model (Section II) gives every vertex a unique label in
// [0, |V|-1] and every edge a single mutable data word shared between the
// updates of its two endpoints; the pull-mode update function of a vertex v
// reads and writes only v's incident edges. The representation here serves
// exactly that access pattern:
//
//   - vertex labels are the indices 0..N()-1;
//   - each directed edge (u→v) has one canonical index in [0, M()), which is
//     its position in the source-sorted edge array; edge-value stores
//     (package edgedata) are flat arrays indexed by that canonical index;
//   - OutEdgeIndex exposes the canonical indices of v's out-edges (a
//     contiguous range), InEdgeIndices those of its in-edges (a gather
//     list), so f(v) can reach the single shared data word of every
//     incident edge in O(degree).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is one directed edge (Src → Dst) in builder input.
type Edge struct {
	Src, Dst uint32
}

// Graph is an immutable directed graph in dual-CSR form. Construct with
// Build or a loader; the zero value is an empty graph.
type Graph struct {
	n int // number of vertices

	// Out-adjacency: edges sorted by (src, dst). The canonical index of the
	// k-th entry of outDst is k itself.
	outOff []int64  // len n+1; out-edges of v are outDst[outOff[v]:outOff[v+1]]
	outDst []uint32 // len m

	// In-adjacency: for each v, the sources of its in-edges plus the
	// canonical index of each such edge in the out-adjacency ordering.
	inOff  []int64  // len n+1
	inSrc  []uint32 // len m
	inEdge []uint32 // len m; canonical edge index of each in-slot
}

// Options controls Build.
type Options struct {
	// NumVertices fixes the vertex-set size. If zero, Build uses
	// 1 + max(endpoint) over the input (or 0 for an empty input).
	NumVertices int
	// DropSelfLoops removes edges with Src == Dst.
	DropSelfLoops bool
	// Dedup collapses parallel edges with identical (Src, Dst).
	Dedup bool
}

// Build constructs a Graph from an edge list in O(M + Σ d log d) for
// out-degrees d: a counting sort by source, then a sort of each row. The
// input slice is not modified and no edge-sized scratch is allocated beside
// the CSR arrays themselves. Endpoints must fit the final vertex count;
// Build returns an error otherwise.
func Build(edges []Edge, opt Options) (*Graph, error) {
	n := opt.NumVertices
	if n == 0 {
		n = maxEndpoint(edges) + 1
	}
	if n < 0 {
		return nil, endpointError(edges, n)
	}

	// Both scatters count vertex v into slot v+2 of an n+2 array, so that
	// after the prefix sum slot v+1 holds the start of v's row and can serve
	// as its write cursor: once every edge is placed it has advanced to the
	// start of row v+1, and the first n+1 slots are the finished offsets.
	outOff := make([]int64, n+2)
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, endpointError(edges, n)
		}
		if opt.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		outOff[int(e.Src)+2]++
	}
	for v := 0; v < n; v++ {
		outOff[v+2] += outOff[v+1]
	}
	outDst := make([]uint32, outOff[n+1])
	for _, e := range edges {
		if opt.DropSelfLoops && e.Src == e.Dst {
			continue
		}
		cur := &outOff[int(e.Src)+1]
		outDst[*cur] = e.Dst
		*cur++
	}
	outOff = outOff[:n+1]
	for v := 0; v < n; v++ {
		slices.Sort(outDst[outOff[v]:outOff[v+1]])
	}
	if opt.Dedup {
		outDst = dedupRows(outOff, outDst)
	}

	g := &Graph{
		n:      n,
		outOff: outOff,
		outDst: outDst,
		inSrc:  make([]uint32, len(outDst)),
		inEdge: make([]uint32, len(outDst)),
	}
	inOff := make([]int64, n+2)
	for _, d := range outDst {
		inOff[int(d)+2]++
	}
	for v := 0; v < n; v++ {
		inOff[v+2] += inOff[v+1]
	}
	// The scatter walks the canonical (src, dst) order, so each vertex's
	// in-list comes out sorted by source.
	for v := 0; v < n; v++ {
		for e := outOff[v]; e < outOff[v+1]; e++ {
			cur := &inOff[int(outDst[e])+1]
			g.inSrc[*cur] = uint32(v)
			g.inEdge[*cur] = uint32(e)
			*cur++
		}
	}
	g.inOff = inOff[:n+1]
	return g, nil
}

// maxEndpoint returns the largest vertex label edges mention, -1 for none.
func maxEndpoint(edges []Edge) int {
	m := -1
	for _, e := range edges {
		m = max(m, int(e.Src), int(e.Dst))
	}
	return m
}

func endpointError(edges []Edge, n int) error {
	return fmt.Errorf("graph: endpoint %d exceeds vertex count %d", maxEndpoint(edges), n)
}

// dedupRows collapses equal neighbours within each sorted row, compacting
// dst and rewriting off in place. When anything was dropped the result is
// copied to its exact size so the graph does not pin the slack.
func dedupRows(off []int64, dst []uint32) []uint32 {
	w, lo := int64(0), int64(0)
	for v := 0; v+1 < len(off); v++ {
		hi := off[v+1]
		off[v] = w
		for i := lo; i < hi; i++ {
			if i == lo || dst[i] != dst[i-1] {
				dst[w] = dst[i]
				w++
			}
		}
		lo = hi
	}
	off[len(off)-1] = w
	if int(w) == len(dst) {
		return dst
	}
	return slices.Clone(dst[:w])
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.outDst) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v uint32) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v uint32) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Degree returns the total incident-edge count of v (in + out).
func (g *Graph) Degree(v uint32) int { return g.OutDegree(v) + g.InDegree(v) }

// OutNeighbors returns the destinations of v's out-edges in ascending
// order. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) OutNeighbors(v uint32) []uint32 {
	return g.outDst[g.outOff[v]:g.outOff[v+1]]
}

// OutEdgeIndex returns the canonical index range [lo, hi) of v's out-edges:
// the canonical index of OutNeighbors(v)[k] is lo+k.
func (g *Graph) OutEdgeIndex(v uint32) (lo, hi uint32) {
	return uint32(g.outOff[v]), uint32(g.outOff[v+1])
}

// EdgeDst returns the destination of the canonical edge index e in O(1).
func (g *Graph) EdgeDst(e uint32) uint32 { return g.outDst[e] }

// InNeighbors returns the sources of v's in-edges in ascending order. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v uint32) []uint32 {
	return g.inSrc[g.inOff[v]:g.inOff[v+1]]
}

// InEdgeIndices returns the canonical edge indices of v's in-edges,
// parallel to InNeighbors(v). The returned slice aliases internal storage
// and must not be modified.
func (g *Graph) InEdgeIndices(v uint32) []uint32 {
	return g.inEdge[g.inOff[v]:g.inOff[v+1]]
}

// EdgeEndpoints returns the (src, dst) pair of the canonical edge index e.
// It runs in O(log N) via binary search over the out-offsets; intended for
// diagnostics and tests, not hot paths.
func (g *Graph) EdgeEndpoints(e uint32) (src, dst uint32) {
	dst = g.outDst[e]
	// Find the vertex whose out range contains e.
	lo, hi := 0, g.n
	for lo < hi {
		mid := (lo + hi) / 2
		if g.outOff[mid+1] <= int64(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo), dst
}

// FindEdge returns the canonical index of edge (src→dst) and whether it
// exists. Parallel edges return the first occurrence.
func (g *Graph) FindEdge(src, dst uint32) (uint32, bool) {
	nbrs := g.OutNeighbors(src)
	k := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	if k < len(nbrs) && nbrs[k] == dst {
		lo, _ := g.OutEdgeIndex(src)
		return lo + uint32(k), true
	}
	return 0, false
}

// Edges returns a fresh edge list in canonical order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.M())
	for v := uint32(0); int(v) < g.n; v++ {
		for _, d := range g.OutNeighbors(v) {
			es = append(es, Edge{Src: v, Dst: d})
		}
	}
	return es
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	es := g.Edges()
	for i := range es {
		es[i].Src, es[i].Dst = es[i].Dst, es[i].Src
	}
	r, err := Build(es, Options{NumVertices: g.n})
	if err != nil {
		// Impossible: endpoints came from a valid graph of the same size.
		panic(err)
	}
	return r
}

// Undirected returns a new graph in which every edge (u→v) of g is paired
// with (v→u). Duplicate pairs are collapsed and self-loops preserved as a
// single direction.
func (g *Graph) Undirected() *Graph {
	es := make([]Edge, 0, 2*g.M())
	for v := uint32(0); int(v) < g.n; v++ {
		for _, d := range g.OutNeighbors(v) {
			es = append(es, Edge{Src: v, Dst: d})
			if d != v {
				es = append(es, Edge{Src: d, Dst: v})
			}
		}
	}
	u, err := Build(es, Options{NumVertices: g.n, Dedup: true})
	if err != nil {
		panic(err)
	}
	return u
}

// Validate checks internal invariants (offset monotonicity, neighbor
// ordering, in/out mirror consistency). It is O(N + M) and intended for
// tests and loaders.
func (g *Graph) Validate() error {
	if len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return fmt.Errorf("graph: offset arrays sized %d/%d for %d vertices", len(g.outOff), len(g.inOff), g.n)
	}
	if g.outOff[g.n] != int64(len(g.outDst)) || g.inOff[g.n] != int64(len(g.inSrc)) {
		return fmt.Errorf("graph: terminal offsets %d/%d do not match edge count %d", g.outOff[g.n], g.inOff[g.n], len(g.outDst))
	}
	for v := 0; v < g.n; v++ {
		if g.outOff[v] > g.outOff[v+1] || g.inOff[v] > g.inOff[v+1] {
			return fmt.Errorf("graph: non-monotonic offsets at vertex %d", v)
		}
	}
	inCount := 0
	for v := uint32(0); int(v) < g.n; v++ {
		srcs := g.InNeighbors(v)
		idxs := g.InEdgeIndices(v)
		inCount += len(srcs)
		for k, s := range srcs {
			e := idxs[k]
			if int(e) >= len(g.outDst) {
				return fmt.Errorf("graph: in-edge index %d out of range", e)
			}
			if g.outDst[e] != v {
				return fmt.Errorf("graph: in-edge %d of vertex %d maps to out-slot with dst %d", e, v, g.outDst[e])
			}
			lo, hi := g.OutEdgeIndex(s)
			if e < lo || e >= hi {
				return fmt.Errorf("graph: in-edge %d of vertex %d not within source %d's range [%d,%d)", e, v, s, lo, hi)
			}
		}
	}
	if inCount != len(g.outDst) {
		return fmt.Errorf("graph: in-adjacency holds %d edges, out-adjacency %d", inCount, len(g.outDst))
	}
	return nil
}

// Stats summarizes a graph for Table I-style reporting.
type Stats struct {
	Vertices    int
	Edges       int
	MaxInDeg    int
	MaxOutDeg   int
	AvgDeg      float64
	SelfLoops   int
	ZeroInDeg   int // vertices with no in-edges
	ZeroOutDeg  int // vertices with no out-edges (dangling, PageRank-relevant)
	Isolated    int // vertices with no edges at all
	DegreeSkew  float64
	Reciprocity float64 // fraction of edges whose reverse also exists
}

// ComputeStats scans the graph and returns summary statistics. DegreeSkew
// is max total degree divided by average total degree — a crude proxy for
// power-law vs regular structure, used to sanity-check the synthetic
// dataset analogs against the paper's Table I graphs.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Vertices: g.n, Edges: g.M()}
	if g.n == 0 {
		return s
	}
	maxDeg := 0
	recip := 0
	for v := uint32(0); int(v) < g.n; v++ {
		in, out := g.InDegree(v), g.OutDegree(v)
		if in > s.MaxInDeg {
			s.MaxInDeg = in
		}
		if out > s.MaxOutDeg {
			s.MaxOutDeg = out
		}
		if in+out > maxDeg {
			maxDeg = in + out
		}
		if in == 0 {
			s.ZeroInDeg++
		}
		if out == 0 {
			s.ZeroOutDeg++
		}
		if in == 0 && out == 0 {
			s.Isolated++
		}
		for _, d := range g.OutNeighbors(v) {
			if d == v {
				s.SelfLoops++
			}
			if _, ok := g.FindEdge(d, v); ok {
				recip++
			}
		}
	}
	s.AvgDeg = float64(2*g.M()) / float64(g.n)
	if s.AvgDeg > 0 {
		s.DegreeSkew = float64(maxDeg) / s.AvgDeg
	}
	if g.M() > 0 {
		s.Reciprocity = float64(recip) / float64(g.M())
	}
	return s
}
