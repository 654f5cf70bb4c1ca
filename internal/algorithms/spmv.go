package algorithms

import (
	"math"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

// SpMV is the paper's other named fixed-point iteration algorithm:
// iterated sparse matrix-vector multiplication, here in the Jacobi form
// x ← b + M·x with the matrix scaled to be a contraction (each row of M
// sums to at most contraction < 1), so the iteration converges to the
// unique fixed point x* = (I − M)⁻¹ b from any start.
//
// Data layout mirrors PageRank: edge (u→v) carries the contribution
// a(u→v)·x(u); f(v) gathers its in-edge contributions, adds b(v), and
// scatters its own new contributions. Only read-write conflicts arise
// under nondeterministic execution (Theorem 1), and like PageRank the
// ε-convergence makes converged values run-dependent.
type SpMV struct {
	// Epsilon is the local convergence threshold.
	Epsilon float64
	// Coeffs holds the immutable matrix coefficient of each edge (u→v):
	// the entry M[v][u], normalized so each row sums to Contraction.
	Coeffs []float64
	// B is the constant vector b.
	B []float64
	// Contraction is the row-sum bound (< 1 for guaranteed convergence).
	Contraction float64
}

// NewSpMV builds a contraction SpMV instance for g with random positive
// coefficients (row-normalized to contraction) and a random b in [0, 1),
// both derived from seed.
func NewSpMV(g *graph.Graph, eps, contraction float64, seed uint64) *SpMV {
	r := rng.New(seed)
	coeffs := make([]float64, g.M())
	// Draw raw positive coefficients, then normalize per destination row.
	rowSum := make([]float64, g.N())
	for v := uint32(0); int(v) < g.N(); v++ {
		idxs := g.InEdgeIndices(v)
		for _, e := range idxs {
			c := 0.1 + r.Float64()
			coeffs[e] = c
			rowSum[v] += c
		}
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		if rowSum[v] == 0 {
			continue
		}
		scale := contraction / rowSum[v]
		for _, e := range g.InEdgeIndices(v) {
			coeffs[e] *= scale
		}
	}
	b := make([]float64, g.N())
	for v := range b {
		b[v] = r.Float64()
	}
	return &SpMV{Epsilon: eps, Coeffs: coeffs, B: b, Contraction: contraction}
}

// Name implements Algorithm.
func (*SpMV) Name() string { return "spmv" }

// Properties implements Algorithm.
func (*SpMV) Properties() eligibility.Properties {
	return eligibility.Properties{
		Name:                   "spmv",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              false,
		Convergence:            eligibility.Approximate,
	}
}

// Setup starts x at b and pre-loads each edge with its contribution under
// that start, scheduling everything.
func (s *SpMV) Setup(e *core.Engine) {
	g := e.Graph()
	for v := range e.Vertices {
		e.Vertices[v] = edgedata.FromFloat64(s.B[v])
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		lo, hi := g.OutEdgeIndex(v)
		x := s.B[v]
		for eIdx := lo; eIdx < hi; eIdx++ {
			e.Edges.Store(eIdx, edgedata.FromFloat64(x*s.Coeffs[eIdx]))
		}
	}
	e.Frontier().ScheduleAll()
}

// Update is f(v): x(v) ← b(v) + Σ in-contributions; scatter new
// contributions unless locally converged.
func (s *SpMV) Update(ctx core.VertexView) {
	sum := s.B[ctx.V()]
	for _, w := range ctx.InEdgeVals() {
		sum += edgedata.ToFloat64(w)
	}
	old := edgedata.ToFloat64(ctx.Vertex())
	ctx.SetVertex(edgedata.FromFloat64(sum))
	if math.Abs(sum-old) < s.Epsilon {
		return
	}
	ctx.Yield()
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, edgedata.FromFloat64(sum*s.Coeffs[ctx.OutEdgeID(k)]))
	}
}

// ResidualDelta is SpMV's residual metric for the online estimator: the
// absolute movement |Δx(v)| of one vertex commit, mirroring PageRank's.
// The Jacobi contraction makes the windowed mean of these deltas trend
// to zero as the run converges.
func (*SpMV) ResidualDelta(old, new uint64) float64 {
	return math.Abs(edgedata.ToFloat64(new) - edgedata.ToFloat64(old))
}

// Values decodes the converged solution vector.
func (s *SpMV) Values(e *core.Engine) []float64 {
	out := make([]float64, len(e.Vertices))
	for v, w := range e.Vertices {
		out[v] = edgedata.ToFloat64(w)
	}
	return out
}

// ReferenceSpMV solves the same fixed point by dense Jacobi iteration to
// tolerance tol — the oracle for tests.
func ReferenceSpMV(g *graph.Graph, s *SpMV, tol float64, maxIter int) []float64 {
	n := g.N()
	x := make([]float64, n)
	next := make([]float64, n)
	copy(x, s.B)
	for iter := 0; iter < maxIter; iter++ {
		for v := uint32(0); int(v) < n; v++ {
			sum := s.B[v]
			srcs := g.InNeighbors(v)
			idxs := g.InEdgeIndices(v)
			for k := range srcs {
				sum += s.Coeffs[idxs[k]] * x[srcs[k]]
			}
			next[v] = sum
		}
		delta := 0.0
		for v := range x {
			if d := math.Abs(next[v] - x[v]); d > delta {
				delta = d
			}
		}
		x, next = next, x
		if delta < tol {
			break
		}
	}
	return x
}

var _ Algorithm = (*SpMV)(nil)
