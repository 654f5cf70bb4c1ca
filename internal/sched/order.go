package sched

// This file implements the analytical order model of Section II: the
// absolute scheduling order π and the partial orders ≺ (happens-before),
// ≻ (happens-after), and ∥ (overlapped) between two updates of the same
// iteration, parameterized by the result-propagation distance d. The
// engine never consults this model at runtime — nondeterministic execution
// has no predefined order — but the eligibility analyzer and the tests use
// it to enumerate the order cases of the Theorem 1/2 proofs.

// Order is the relation between two updates f(v), f(u) of one iteration.
type Order int

const (
	// Before means f(v) ≺ f(u): f(u) can use the results of f(v).
	Before Order = iota
	// After means f(v) ≻ f(u): f(v) can use the results of f(u).
	After
	// Overlap means f(v) ∥ f(u): neither sees the other's results.
	Overlap
)

// String names the relation with the paper's symbols.
func (o Order) String() string {
	switch o {
	case Before:
		return "≺"
	case After:
		return "≻"
	case Overlap:
		return "∥"
	default:
		return "?"
	}
}

// Pi computes the absolute scheduling order π(v) for vertex label l under
// the Fig. 1 dispatch of nv scheduled updates over p threads:
// π(v) = position of v within its thread's block. With equal blocks this
// is l % (nv/p), matching the paper's formula; uneven tails use the exact
// block geometry. Pi, SameThread and Relation model the paper's equal-count
// blocks (Block), not the engine's balanced cut (Cuts): the proofs hold for
// any contiguous small-label-first blocks, so the model keeps the paper's
// geometry.
func Pi(l, nv, p int) int {
	if p <= 1 {
		return l
	}
	items := nv
	// Find the worker whose block [w*items/p, (w+1)*items/p) contains l.
	w := l * p / items
	for w*items/p > l {
		w--
	}
	for (w+1)*items/p <= l {
		w++
	}
	return l - w*items/p
}

// SameThread reports whether labels a and b land on the same worker under
// the Fig. 1 equal-count dispatch of nv updates over p threads (see Pi).
func SameThread(a, b, nv, p int) bool {
	if p <= 1 {
		return true
	}
	worker := func(l int) int {
		w := l * p / nv
		for w*nv/p > l {
			w--
		}
		for (w+1)*nv/p <= l {
			w++
		}
		return w
	}
	return worker(a) == worker(b)
}

// Relation classifies the order between f(v) and f(u) (by their labels)
// under the system model with propagation distance d, per Definitions 1–3:
//
//   - same thread: π decides strictly (Before if π(v) < π(u));
//   - different threads: Before if π(u) − π(v) ≥ d, After if
//     π(v) − π(u) ≥ d, Overlap if |π(v) − π(u)| < d.
//
// d is the time, measured in updates, for a result to propagate between
// threads (cache-coherence latency in the paper's machine model).
func Relation(v, u, nv, p, d int) Order {
	pv, pu := Pi(v, nv, p), Pi(u, nv, p)
	if SameThread(v, u, nv, p) {
		if pv < pu {
			return Before
		}
		if pv > pu {
			return After
		}
		return Overlap // same update; degenerate
	}
	switch {
	case pu-pv >= d:
		return Before
	case pv-pu >= d:
		return After
	default:
		return Overlap
	}
}
