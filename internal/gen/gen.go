// Package gen synthesizes deterministic graphs for tests, examples, and the
// experiment harness.
//
// The paper evaluates on four real-world directed graphs (Table I):
// web-BerkStan, web-Google, soc-LiveJournal1 (SNAP) and cage15 (UF Sparse
// Matrix Collection). Those datasets are not available offline, so this
// package provides seeded generators whose *structural class* matches each
// original — heavy-tailed R-MAT/preferential-attachment graphs for the web
// and social graphs, and a quasi-regular banded graph for the cage matrix.
// The paper's phenomena (conflict classes on edges, nondeterministic
// convergence, write-write recovery, PageRank rank variance) depend on those
// structural classes rather than on the particular crawls, so the analogs
// preserve the relevant behavior. See DESIGN.md §4.
//
// All generators are deterministic functions of their parameters and seed.
package gen

import (
	"fmt"

	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

// RMATParams configures the recursive-matrix (R-MAT) generator of
// Chakrabarti, Zhan, and Faloutsos. A, B, C, D are the quadrant
// probabilities (A+B+C+D must be ~1); larger A yields heavier skew.
type RMATParams struct {
	A, B, C, D float64
	// NoiseAmp perturbs the quadrant probabilities per recursion level to
	// avoid staircase artifacts; 0 disables.
	NoiseAmp float64
}

// DefaultRMAT is the classic Graph500-style parameterization.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, NoiseAmp: 0.1}

// RMAT generates a directed graph with n vertices (rounded up to a power of
// two internally, then relabeled down) and m edges using the R-MAT process.
// Self-loops are dropped and parallel edges deduplicated, so the final edge
// count may be slightly below m.
func RMAT(n, m int, p RMATParams, seed uint64) (*graph.Graph, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("gen: RMAT needs n > 0, m >= 0 (got n=%d m=%d)", n, m)
	}
	if s := p.A + p.B + p.C + p.D; s < 0.99 || s > 1.01 {
		return nil, fmt.Errorf("gen: RMAT quadrant probabilities sum to %v, want 1", s)
	}
	levels := 0
	for 1<<levels < n {
		levels++
	}
	r := rng.New(seed)
	// Random relabeling hides the power-of-two recursion structure and
	// spreads the hubs across the label space (the paper's dispatch is by
	// label blocks, so hub placement matters for load balance realism).
	// Stored as uint32 to halve the table the inner loop looks up at random.
	perm := r.Perm(1 << levels)
	relabel := make([]uint32, len(perm))
	for i, v := range perm {
		relabel[i] = uint32(v)
	}
	// One bulk draw per edge: with noise, level l consumes f[2l] (the
	// noise) then f[2l+1] (the quadrant); without, f[l]. This is exactly
	// the order of one Float64 call per use, so every seed keeps its edges.
	per := 1
	if p.NoiseAmp > 0 {
		per = 2
	}
	f := make([]float64, per*levels)
	es := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		r.Float64s(f)
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			a, b, c := p.A, p.B, p.C
			u := f[l]
			if per == 2 {
				mu := 1 + p.NoiseAmp*(2*f[2*l]-1)
				a *= mu
				b *= mu
				c *= mu
				u = f[2*l+1]
			}
			// The quadrant is the first cumulative bound u falls below:
			// a, a+b, a+b+c, else d. c and d set the row (src) bit, b and d
			// the column (dst) bit; comparisons instead of a switch keep
			// the unpredictable choice free of branches.
			ab := a + b
			abc := ab + c
			u *= abc + p.D
			notA, notAB, notABC := 1^b2i(u < a), 1^b2i(u < ab), 1^b2i(u < abc)
			src |= (notA & notAB) << l
			dst |= (notA & (notAB ^ 1 | notABC)) << l
		}
		s, d := relabel[src], relabel[dst]
		if int(s) >= n || int(d) >= n || s == d {
			continue // outside the requested vertex range or self-loop
		}
		es = append(es, graph.Edge{Src: s, Dst: d})
	}
	return graph.Build(es, graph.Options{NumVertices: n, Dedup: true})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PreferentialAttachment generates a directed graph by the Barabási–Albert
// process: vertices arrive one at a time and attach k out-edges to targets
// drawn proportionally to current degree (plus one smoothing). Produces a
// heavy-tailed in-degree distribution like a social graph.
func PreferentialAttachment(n, k int, seed uint64) (*graph.Graph, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gen: PreferentialAttachment needs n, k > 0 (got n=%d k=%d)", n, k)
	}
	r := rng.New(seed)
	// targets is the repeated-endpoint trick: every edge endpoint appears
	// once, so uniform draws from it are degree-proportional.
	targets := make([]uint32, 0, 2*n*k)
	es := make([]graph.Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			var dst uint32
			if len(targets) == 0 || v == 0 {
				if v == 0 {
					break // first vertex has nobody to attach to
				}
				dst = uint32(r.Intn(v))
			} else if r.Float64() < 0.15 {
				// Uniform smoothing: occasional random target keeps the
				// tail populated.
				dst = uint32(r.Intn(v))
			} else {
				dst = targets[r.Intn(len(targets))]
			}
			if int(dst) == v {
				continue
			}
			es = append(es, graph.Edge{Src: uint32(v), Dst: dst})
			targets = append(targets, uint32(v), dst)
		}
	}
	return graph.Build(es, graph.Options{NumVertices: n, Dedup: true})
}

// ErdosRenyi generates a directed G(n, m) graph: m edges drawn uniformly
// (self-loops excluded, duplicates allowed unless dedup).
func ErdosRenyi(n, m int, seed uint64) (*graph.Graph, error) {
	if n <= 1 || m < 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n > 1, m >= 0 (got n=%d m=%d)", n, m)
	}
	r := rng.New(seed)
	es := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		s := uint32(r.Intn(n))
		d := uint32(r.Intn(n - 1))
		if d >= s {
			d++
		}
		es = append(es, graph.Edge{Src: s, Dst: d})
	}
	return graph.Build(es, graph.Options{NumVertices: n, Dedup: true})
}

// Banded generates a quasi-regular "matrix band" graph: each vertex i links
// to deg neighbors at offsets drawn uniformly from [1, bandwidth], in both
// directions around a ring. This is the structural analog of the cage
// matrices (near-uniform degree, strong locality, low skew).
func Banded(n, deg, bandwidth int, seed uint64) (*graph.Graph, error) {
	if n <= 2 || deg <= 0 || bandwidth <= 0 || bandwidth >= n {
		return nil, fmt.Errorf("gen: Banded needs n > 2, deg > 0, 0 < bandwidth < n (got n=%d deg=%d bw=%d)", n, deg, bandwidth)
	}
	r := rng.New(seed)
	es := make([]graph.Edge, 0, n*deg)
	for v := 0; v < n; v++ {
		for j := 0; j < deg; j++ {
			off := 1 + r.Intn(bandwidth)
			if r.Intn(2) == 0 {
				off = -off
			}
			d := ((v+off)%n + n) % n
			if d == v {
				continue
			}
			es = append(es, graph.Edge{Src: uint32(v), Dst: uint32(d)})
		}
	}
	return graph.Build(es, graph.Options{NumVertices: n, Dedup: true})
}

// Grid generates a directed 2D lattice of rows×cols vertices with edges to
// the right and down neighbor (and optionally back). Road-network-like;
// used by the shortestpath example.
func Grid(rows, cols int, bidirectional bool, seed uint64) (*graph.Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("gen: Grid needs rows, cols > 0 (got %dx%d)", rows, cols)
	}
	_ = seed // grid is fully deterministic; seed kept for interface symmetry
	n := rows * cols
	es := make([]graph.Edge, 0, 2*n)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				es = append(es, graph.Edge{Src: id(r, c), Dst: id(r, c+1)})
				if bidirectional {
					es = append(es, graph.Edge{Src: id(r, c+1), Dst: id(r, c)})
				}
			}
			if r+1 < rows {
				es = append(es, graph.Edge{Src: id(r, c), Dst: id(r+1, c)})
				if bidirectional {
					es = append(es, graph.Edge{Src: id(r+1, c), Dst: id(r, c)})
				}
			}
		}
	}
	return graph.Build(es, graph.Options{NumVertices: n})
}

// Ring generates a directed cycle 0→1→…→n-1→0.
func Ring(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Ring needs n > 0 (got %d)", n)
	}
	es := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		es[i] = graph.Edge{Src: uint32(i), Dst: uint32((i + 1) % n)}
	}
	return graph.Build(es, graph.Options{NumVertices: n})
}

// Chain generates a directed path 0→1→…→n-1. Chains maximize the
// iteration count of traversal algorithms, making them the worst case for
// the convergence proofs' "chain from v0 to v" argument (Theorem 1).
func Chain(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Chain needs n > 0 (got %d)", n)
	}
	es := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		es = append(es, graph.Edge{Src: uint32(i), Dst: uint32(i + 1)})
	}
	return graph.Build(es, graph.Options{NumVertices: n})
}

// Star generates a hub-and-spoke graph: vertex 0 points to all others and
// all others point back. The single hub concentrates conflicts on its
// incident edges — an adversarial input for nondeterministic execution.
func Star(n int) (*graph.Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("gen: Star needs n > 1 (got %d)", n)
	}
	es := make([]graph.Edge, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		es = append(es, graph.Edge{Src: 0, Dst: uint32(i)}, graph.Edge{Src: uint32(i), Dst: 0})
	}
	return graph.Build(es, graph.Options{NumVertices: n})
}

// Complete generates the complete directed graph on n vertices (no
// self-loops). Only sensible for small n.
func Complete(n int) (*graph.Graph, error) {
	if n <= 0 || n > 4096 {
		return nil, fmt.Errorf("gen: Complete needs 0 < n <= 4096 (got %d)", n)
	}
	es := make([]graph.Edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				es = append(es, graph.Edge{Src: uint32(i), Dst: uint32(j)})
			}
		}
	}
	return graph.Build(es, graph.Options{NumVertices: n})
}
