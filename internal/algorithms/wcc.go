package algorithms

import (
	"ndgraph/internal/core"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
)

// WCC computes weakly connected components by minimum-label propagation —
// the paper's Fig. 2 example, adapted from GraphChi's shipped WCC program.
// Every vertex starts with its own label; the update takes the minimum of
// the vertex label and all incident edge labels and writes the minimum
// back to the vertex and to every incident edge that exceeds it.
//
// Because both endpoints of an edge write it, nondeterministic execution
// produces write-write conflicts; WCC is monotone (labels only decrease),
// so Theorem 2 guarantees recovery from corrupted edge values, and the
// absolute convergence condition makes the final labels identical to
// deterministic execution.
type WCC struct{}

// NewWCC returns the WCC algorithm.
func NewWCC() *WCC { return &WCC{} }

// Name implements Algorithm.
func (*WCC) Name() string { return "wcc" }

// Properties implements Algorithm.
func (*WCC) Properties() eligibility.Properties {
	return eligibility.Properties{
		Name:              "wcc",
		ConvergesDetAsync: true,
		// WCC also converges synchronously, but the paper routes it
		// through Theorem 2 because of its write-write conflicts.
		ConvergesSynchronously: true,
		Monotonic:              true,
		Convergence:            eligibility.Absolute,
	}
}

// wccInf is the "infinite" initial edge label of the paper's example.
const wccInf = ^uint64(0)

// Setup gives vertex v the label v, sets all edge labels to infinity, and
// schedules every vertex.
func (*WCC) Setup(e *core.Engine) {
	for v := range e.Vertices {
		e.Vertices[v] = uint64(v)
	}
	e.Edges.Fill(wccInf)
	e.Frontier().ScheduleAll()
}

// Update is f(v): min over own label and incident edge labels, then
// correct the vertex and any incident edge above the minimum.
func (*WCC) Update(ctx core.VertexView) {
	min := ctx.Vertex()
	for _, w := range ctx.InEdgeVals() {
		if w < min {
			min = w
		}
	}
	for _, w := range ctx.OutEdgeVals() {
		if w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	ctx.Yield()
	// The correction re-reads the edges rather than reusing the gathered
	// words: a neighbour may have lowered one since (the Yield above is
	// where the amplifier lets it), and the guard should see that.
	for k, w := range ctx.InEdgeVals() {
		if w > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
	for k, w := range ctx.OutEdgeVals() {
		if w > min {
			ctx.SetOutEdgeVal(k, min)
		}
	}
}

// Components decodes the converged component label of every vertex.
func (*WCC) Components(e *core.Engine) []uint32 {
	out := make([]uint32, len(e.Vertices))
	for v, w := range e.Vertices {
		out[v] = uint32(w)
	}
	return out
}

// NumComponents counts distinct labels in a converged labeling.
func NumComponents(labels []uint32) int {
	seen := make(map[uint32]struct{}, 64)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// ReferenceWCC computes weakly connected components with a union-find over
// the undirected edge set — an independent implementation whose labels
// (minimum vertex id per component) must match the engine's converged
// labels exactly.
func ReferenceWCC(g *graph.Graph) []uint32 {
	parent := make([]uint32, g.N())
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // keep the smaller id as root so labels are minima
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		for _, u := range g.OutNeighbors(v) {
			union(v, u)
		}
	}
	labels := make([]uint32, g.N())
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	return labels
}

var (
	_ Algorithm = (*WCC)(nil)
	_ Algorithm = (*PageRank)(nil)
)
