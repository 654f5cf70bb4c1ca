package algorithms

import (
	"math"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
)

// PageRank is the paper's representative fixed-point iteration algorithm,
// implemented with local convergence as in the paper (and in [Kyrola et
// al., GraphChi]): vertex v stops propagating once |f(D_v) − D_v| < ε.
//
// Data layout: D_v is the current rank; each out-edge of v carries
// rank(v) / outdeg(v). The update gathers the in-edge contributions, so
// under nondeterministic execution the conflicts on an edge (u→v) are
// writes by f(u) racing reads by f(v) — read-write conflicts only, the
// Theorem 1 case.
type PageRank struct {
	// Epsilon is the local convergence threshold ε. Smaller values
	// converge more precisely and, per Section V-C, push nondeterministic
	// run-to-run variance toward less significant pages.
	Epsilon float64
	// Damping is the damping factor (0.85 in the standard formulation).
	Damping float64
}

// NewPageRank returns a PageRank with threshold eps and standard damping.
func NewPageRank(eps float64) *PageRank {
	return &PageRank{Epsilon: eps, Damping: 0.85}
}

// Name implements Algorithm.
func (*PageRank) Name() string { return "pagerank" }

// Properties implements Algorithm: PageRank converges under BSP, is not
// monotonic (ranks move both ways), and converges approximately.
func (*PageRank) Properties() eligibility.Properties {
	return eligibility.Properties{
		Name:                   "pagerank",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              false,
		Convergence:            eligibility.Approximate,
	}
}

// Setup initializes every vertex to rank 1 and every edge (u→v) to
// 1/outdeg(u), and schedules all vertices — the paper's initial state.
func (p *PageRank) Setup(e *core.Engine) {
	g := e.Graph()
	for v := range e.Vertices {
		e.Vertices[v] = edgedata.FromFloat64(1.0)
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		outDeg := g.OutDegree(v)
		if outDeg == 0 {
			continue
		}
		lo, hi := g.OutEdgeIndex(v)
		w := edgedata.FromFloat64(1.0 / float64(outDeg))
		for eIdx := lo; eIdx < hi; eIdx++ {
			e.Edges.Store(eIdx, w)
		}
	}
	e.Frontier().ScheduleAll()
}

// Update is f(v): gather in-edge contributions, compute the damped rank,
// and scatter rank/outdeg to the out-edges unless locally converged.
func (p *PageRank) Update(ctx core.VertexView) {
	sum := 0.0
	for _, w := range ctx.InEdgeVals() {
		sum += edgedata.ToFloat64(w)
	}
	old := edgedata.ToFloat64(ctx.Vertex())
	rank := (1 - p.Damping) + p.Damping*sum
	ctx.SetVertex(edgedata.FromFloat64(rank))
	if math.Abs(rank-old) < p.Epsilon {
		return // locally converged: no scatter, no rescheduling
	}
	ctx.Yield()
	if out := ctx.OutDegree(); out > 0 {
		ctx.SetOutEdgeVals(edgedata.FromFloat64(rank / float64(out)))
	}
}

// Ranks decodes the converged rank vector from the engine.
func (p *PageRank) Ranks(e *core.Engine) []float64 {
	out := make([]float64, len(e.Vertices))
	for v, w := range e.Vertices {
		out[v] = edgedata.ToFloat64(w)
	}
	return out
}

// ReferencePageRank computes ranks by damped power iteration over the full
// graph until the L∞ change falls below eps — an independent
// implementation used to validate the engine-based one. It mirrors the
// engine formulation (no dangling-mass redistribution) so converged values
// are comparable.
func ReferencePageRank(g *graph.Graph, damping, eps float64, maxIter int) []float64 {
	n := g.N()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0
	}
	for iter := 0; iter < maxIter; iter++ {
		for v := uint32(0); int(v) < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(v) {
				if d := g.OutDegree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			next[v] = (1 - damping) + damping*sum
		}
		delta := 0.0
		for v := range rank {
			if d := math.Abs(next[v] - rank[v]); d > delta {
				delta = d
			}
		}
		rank, next = next, rank
		if delta < eps {
			break
		}
	}
	return rank
}
