package algorithms

import (
	"math"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

// SSSP computes single-source shortest paths, the paper's second traversal
// algorithm. Following the paper's setup, each edge stores an immutable
// weight (a random value in [1, 100] generated at initialization) and a
// mutable distance word; the distance of vertex v flows to its neighbors
// through the out-edges: edge (v→u) carries dist(v) + w(v→u), and f(u)
// gathers the minimum over its in-edges.
//
// Only the source endpoint of an edge ever writes it, so nondeterministic
// execution produces read-write conflicts only — the Theorem 1 case. The
// computation is also monotone (distances only decrease) with an absolute
// convergence condition, so its converged distances are identical across
// schedulers.
type SSSP struct {
	// Source is the single source vertex.
	Source uint32
	// Weights holds the immutable per-edge weights, indexed by canonical
	// edge index. Populated by NewSSSP.
	Weights []float64

	name string
}

// NewSSSP builds an SSSP instance for g with weights drawn uniformly from
// {1, …, 100} using the given seed (the paper's randomized weights).
func NewSSSP(g *graph.Graph, source uint32, seed uint64) *SSSP {
	r := rng.New(seed)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = float64(1 + r.Intn(100))
	}
	return &SSSP{Source: source, Weights: w, name: "sssp"}
}

// NewBFS builds breadth-first search as the paper does: "a special case of
// SSSP, where the weight values of the edges are all ones".
func NewBFS(g *graph.Graph, source uint32) *SSSP {
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1
	}
	return &SSSP{Source: source, Weights: w, name: "bfs"}
}

// Name implements Algorithm ("sssp" or "bfs").
func (s *SSSP) Name() string { return s.name }

// Properties implements Algorithm.
func (s *SSSP) Properties() eligibility.Properties {
	return eligibility.Properties{
		Name:                   s.name,
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            eligibility.Absolute,
	}
}

// Setup sets the source distance to 0 and everything else (vertices and
// edge distance words) to +Inf, scheduling only the source.
func (s *SSSP) Setup(e *core.Engine) {
	inf := edgedata.FromFloat64(math.Inf(1))
	for v := range e.Vertices {
		e.Vertices[v] = inf
	}
	e.Vertices[s.Source] = edgedata.FromFloat64(0)
	e.Edges.Fill(inf)
	e.Frontier().ScheduleNow(int(s.Source))
}

// Update is f(v): gather candidate distances from in-edges, keep the
// minimum, and scatter improved candidates dist(v)+w to out-edges whose
// current word exceeds them.
func (s *SSSP) Update(ctx core.VertexView) {
	d := edgedata.ToFloat64(ctx.Vertex())
	for _, w := range ctx.InEdgeVals() {
		if c := edgedata.ToFloat64(w); c < d {
			d = c
		}
	}
	ctx.SetVertex(edgedata.FromFloat64(d))
	if math.IsInf(d, 1) {
		return // unreached; nothing to scatter
	}
	ctx.Yield()
	for k, w := range ctx.OutEdgeVals() {
		cand := d + s.Weights[ctx.OutEdgeID(k)]
		// !(cand >= cur) rather than cand < cur: a corrupted edge word
		// decoding to NaN compares false both ways, and the negated form
		// rewrites it instead of leaving the corruption in place forever.
		if cur := edgedata.ToFloat64(w); !(cand >= cur) {
			ctx.SetOutEdgeVal(k, edgedata.FromFloat64(cand))
		}
	}
}

// Distances decodes the converged distance of every vertex (+Inf for
// unreachable vertices).
func (s *SSSP) Distances(e *core.Engine) []float64 {
	out := make([]float64, len(e.Vertices))
	for v, w := range e.Vertices {
		out[v] = edgedata.ToFloat64(w)
	}
	return out
}

// ReferenceSSSP computes exact shortest-path distances with Dijkstra's
// algorithm over the same weights — the independent oracle for tests.
func ReferenceSSSP(g *graph.Graph, source uint32, weights []float64) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	h := &distHeap{items: []distItem{{v: source, d: 0}}}
	for h.len() > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue // stale entry
		}
		lo, _ := g.OutEdgeIndex(it.v)
		for k, u := range g.OutNeighbors(it.v) {
			nd := it.d + weights[lo+uint32(k)]
			if nd < dist[u] {
				dist[u] = nd
				h.push(distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

// distHeap is a minimal binary min-heap on (vertex, distance); hand-rolled
// to keep the reference free of interface boxing.
type distItem struct {
	v uint32
	d float64
}

type distHeap struct {
	items []distItem
}

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < last && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

var _ Algorithm = (*SSSP)(nil)
