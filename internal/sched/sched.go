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
//     (Fig. 1, OpenMP-static style); each worker runs its block
//     small-label-first; a barrier separates iterations. Updates race on
//     shared edges, protected only by per-operation atomicity.
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
	"sync"
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

// Block returns the contiguous sub-slice of items assigned to the given
// worker of p workers under the paper's Fig. 1 dispatch: worker i receives
// positions [i*len/p, (i+1)*len/p). Items are assumed sorted ascending, so
// each block is processed small-label-first by construction.
func Block(items []int, worker, p int) []int {
	n := len(items)
	lo := worker * n / p
	hi := (worker + 1) * n / p
	return items[lo:hi]
}

// ParallelBlocks dispatches items over p workers per Fig. 1 and blocks
// until all workers finish (the iteration barrier). fn is invoked as
// fn(worker, item); items within a worker run in slice order. p <= 1 or a
// single-block input degrades to a sequential loop with no goroutines.
func ParallelBlocks(items []int, p int, fn func(worker, item int)) {
	if p <= 1 || len(items) <= 1 {
		for _, it := range items {
			fn(0, it)
		}
		return
	}
	if p > len(items) {
		p = len(items)
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		block := Block(items, w, p)
		if len(block) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, block []int) {
			defer wg.Done()
			for _, it := range block {
				fn(w, it)
			}
		}(w, block)
	}
	wg.Wait()
}

// Sequential runs fn over items in order with worker id 0 — the
// deterministic scheduler's dispatch.
func Sequential(items []int, fn func(worker, item int)) {
	for _, it := range items {
		fn(0, it)
	}
}
