// Package sched implements the scheduling strategies of the paper's system
// model (Section II) and related work (Section VI):
//
//   - Deterministic: the analog of GraphChi's external deterministic
//     scheduler. Updates of an iteration execute sequentially in ascending
//     label order; results are visible immediately (Gauss–Seidel). The
//     paper observes this scheduler "does not scale (the updates are
//     actually conducted sequentially due to the data dependences)".
//   - Nondeterministic: the paper's contribution target. The scheduled set
//     is dispatched over P worker threads in contiguous label blocks
//     (Fig. 1); each worker runs its block small-label-first; a barrier
//     separates iterations. Updates race on shared edges, protected only
//     by per-operation atomicity. Where the blocks are cut is a separate
//     load-balance layer (Cuts): at equal shares of updates plus incident
//     edges rather than OpenMP-static's equal counts, which the model does
//     not need.
//   - Synchronous: the BSP baseline. Reads observe the previous
//     iteration's edge values (the engine snapshots at the barrier), so
//     updates of one iteration never see each other's writes.
//   - DIG: Deterministic Galois's interference-graph scheduler (dig.go).
//     Each iteration's scheduled set runs as a sequence of independent-set
//     rounds, parallel within a round and deterministic overall.
//   - NoSync: the pure asynchronous model the paper defers to future work.
//     No iterations and no barriers: a write's wakeup is runnable at once,
//     and workers drain per-worker deques with stealing (deque.go). In
//     Blanco et al.'s delayed-asynchronous terms, Synchronous is δ = ∞,
//     the block schedulers sit in between, and NoSync is δ = 0.
package sched

import (
	"fmt"

	"ndgraph/internal/graph"
)

// Kind selects a scheduling strategy.
type Kind int

const (
	// Deterministic is sequential ascending-label Gauss–Seidel execution.
	Deterministic Kind = iota
	// Nondeterministic is the paper's racy block-parallel execution.
	Nondeterministic
	// Synchronous is BSP execution (reads see the previous iteration).
	Synchronous
	// DIG is the deterministic-interference-graph scheduler (Galois):
	// per-iteration maximal-independent-set rounds, parallel within a
	// round, deterministic by greedy label order.
	DIG
	// NoSync is barrier-free work-stealing execution. Only algorithms
	// whose eligibility verdict names Theorem 1 or 2 may run under it.
	NoSync
	numKinds
)

// String returns the kind's harness name.
func (k Kind) String() string {
	switch k {
	case Deterministic:
		return "det"
	case Nondeterministic:
		return "nondet"
	case Synchronous:
		return "sync"
	case DIG:
		return "dig"
	case NoSync:
		return "nosync"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a name produced by String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown scheduler %q", s)
}

// Cuts splits the ascending scheduled set items into p contiguous blocks of
// equal cost and returns their boundaries in dst[:p+1] (reallocated only
// when too small): worker w runs items[cuts[w]:cuts[w+1]], so cuts[0] = 0,
// cuts[p] = len(items) and the cuts never decrease. A block B's cost is
// |B|/|S| + deg(B)/deg(S), deg counting in- and out-edges in g: each block
// gets an equal share of the iteration's updates and of the edges they
// touch together, which weighs a vertex at its degree plus the set's mean
// degree and needs no tuned constant.
//
// Cut w is the last position whose prefix cost does not exceed w/p, so every
// block's cost is within one item's cost of 1/p. Only min(p, len(items))
// blocks are cut and the surplus workers get empty trailing blocks, so a
// single item always lands on worker 0; a set whose degrees are all 0 (or a
// nil g) cuts at Fig. 1's equal counts over that many workers, worker i
// receiving positions [i·n/eff, (i+1)·n/eff). Blocks stay
// contiguous and ascending, which is all the paper's order model (≺/≻/∥,
// Lemmas 1–2, both theorems) asks of the dispatch; equal counts per block
// were OpenMP-static's convenience.
//
// Costs are kept in float64 units of 1/(|S|·deg(S)), which stay integers,
// and so exact, below 2^53; |S|·deg(S) overflows a 32-bit int.
func Cuts(dst []int, g *graph.Graph, items []int, p int) []int {
	if p < 1 {
		p = 1
	}
	if cap(dst) < p+1 {
		dst = make([]int, p+1)
	}
	dst = dst[:p+1]
	n := len(items)
	eff := min(p, n)
	var degS int64
	if g != nil && eff > 1 {
		for _, v := range items {
			degS += int64(g.Degree(uint32(v)))
		}
	}
	dst[0] = 0
	if degS == 0 {
		for w := 1; w < eff; w++ {
			dst[w] = int(int64(w) * int64(n) / int64(eff))
		}
	} else {
		// Item cost deg(S) + |S|·deg(v); the set totals 2·|S|·deg(S).
		a, b := float64(degS), float64(n)
		total := 2 * b * a
		k, prefix := 0, 0.0
		for w := 1; w < eff; w++ {
			target := float64(w) * total
			for k < n {
				c := a + b*float64(g.Degree(uint32(items[k])))
				if float64(eff)*(prefix+c) > target {
					break
				}
				prefix += c
				k++
			}
			dst[w] = k
		}
	}
	for w := max(eff, 1); w <= p; w++ {
		dst[w] = n
	}
	return dst
}

// Sequential runs fn over items in order with worker id 0 — the
// deterministic scheduler's dispatch.
func Sequential(items []int, fn func(worker, item int)) {
	for _, it := range items {
		fn(0, it)
	}
}
