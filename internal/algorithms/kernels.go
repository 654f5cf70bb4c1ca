package algorithms

import (
	"math"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/graph"
)

// Kernel is one monotone vertex program expressed so that a single
// (Message, Better) pair serves both traversal directions — the paired
// push/pull registry backing the direction-optimizing hybrid engine.
//
// The pairing works because the repository's graphs give every edge one
// canonical index: OutEdgeIndex(u) numbers u's k-th out-edge lo+k, and
// InEdgeIndices(v) returns those same canonical indices from the
// destination side. A push executor computes Message(val(u), e) while
// scanning u's out-edges; a pull executor computes the identical offer
// while scanning v's in-edges — same source value, same edge index, same
// candidate. Better is the strict monotone improvement test, so either
// direction (or any per-iteration mix) relaxes the same edge set and
// converges to the same unique fixed point; that is what lets the hybrid
// engine switch directions mid-run and still match the deterministic core
// engine byte-for-byte (the paper's Theorem 2 absolute-convergence
// argument, applied per direction).
type Kernel struct {
	// Name labels the kernel in benchmarks and telemetry.
	Name string
	// Undirected requires the graph symmetrized (Graph.Undirected) before
	// running, so offers can travel against edge direction — WCC's
	// "weakly" connected semantics.
	Undirected bool
	// Init returns the initial per-vertex data words and the seed set;
	// seeds == nil means every vertex starts scheduled (S_0 = V).
	Init func(g *graph.Graph) (vals []uint64, seeds []int)
	// Message computes the candidate offered across canonical edge e from
	// the source's current value.
	Message func(srcVal uint64, e uint32) uint64
	// Better reports whether candidate strictly improves on current. It
	// must be a strict test (irreflexive) or the computation will not
	// quiesce.
	Better func(candidate, current uint64) bool
	// EdgeIndexed declares that Message reads its edge-index argument
	// (per-edge data such as SSSP's weights). When false, executors may
	// pass any edge index — a pull sweep then skips streaming the
	// in-edge-index array entirely, which is one full array scan per
	// iteration on kernels like WCC and BFS whose offers depend only on
	// the source value.
	EdgeIndexed bool
	// FirstOfferWins declares the level-synchronous traversal property:
	// a vertex still holding Unreached adopts the first offer made to it,
	// and a vertex past Unreached never improves again. BFS has it —
	// every offer of iteration k is exactly distance k+1, so all
	// concurrent offers are equal and any one of them is the fixed-point
	// value. It licenses the classic Beamer pull optimizations (skip
	// reached vertices, stop scanning in-neighbors at the first scheduled
	// one) without breaking byte-identical convergence. Leave false for
	// kernels whose offers differ per edge (SSSP) or per source (WCC).
	FirstOfferWins bool
	// Unreached is the initial "no value yet" word FirstOfferWins keys
	// on; meaningful only when FirstOfferWins is set.
	Unreached uint64
}

// WCCKernel is minimum-label propagation: every vertex starts as its own
// component and adopts the smallest label offered by any neighbor.
func WCCKernel() Kernel {
	return Kernel{
		Name:       "wcc",
		Undirected: true,
		Init: func(g *graph.Graph) ([]uint64, []int) {
			vals := make([]uint64, g.N())
			for v := range vals {
				vals[v] = uint64(v)
			}
			return vals, nil
		},
		Message: func(srcVal uint64, _ uint32) uint64 { return srcVal },
		Better:  func(c, cur uint64) bool { return c < cur },
	}
}

// BFSKernel is breadth-first search from source: hop distances as float64
// bit patterns (+Inf where unreachable), matching the core BFS algorithm
// word-for-word.
func BFSKernel(source uint32) Kernel {
	return Kernel{
		Name: "bfs",
		Init: func(g *graph.Graph) ([]uint64, []int) {
			vals := make([]uint64, g.N())
			inf := edgedata.FromFloat64(math.Inf(1))
			for v := range vals {
				vals[v] = inf
			}
			vals[source] = edgedata.FromFloat64(0)
			return vals, []int{int(source)}
		},
		Message: func(srcVal uint64, _ uint32) uint64 {
			return edgedata.FromFloat64(edgedata.ToFloat64(srcVal) + 1)
		},
		Better: func(c, cur uint64) bool {
			return edgedata.ToFloat64(c) < edgedata.ToFloat64(cur)
		},
		FirstOfferWins: true,
		Unreached:      edgedata.FromFloat64(math.Inf(1)),
	}
}

// SSSPKernel is single-source shortest paths over per-edge weights in
// canonical edge index order — the same weight is read whether the edge
// is relaxed from its source (push) or gathered at its destination
// (pull).
func SSSPKernel(source uint32, weights []float64) Kernel {
	return Kernel{
		Name: "sssp",
		Init: func(g *graph.Graph) ([]uint64, []int) {
			vals := make([]uint64, g.N())
			inf := edgedata.FromFloat64(math.Inf(1))
			for v := range vals {
				vals[v] = inf
			}
			vals[source] = edgedata.FromFloat64(0)
			return vals, []int{int(source)}
		},
		Message: func(srcVal uint64, e uint32) uint64 {
			return edgedata.FromFloat64(edgedata.ToFloat64(srcVal) + weights[e])
		},
		Better: func(c, cur uint64) bool {
			return edgedata.ToFloat64(c) < edgedata.ToFloat64(cur)
		},
		EdgeIndexed: true,
	}
}
