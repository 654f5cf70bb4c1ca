// Online residual estimation: a striped, allocation-free accumulator of
// convergence progress, updated at vertex-commit time.
//
// The engines' per-sample Residual gauge is the *active fraction*
// (scheduled / |V|) — a proxy that says how much work is queued, not how
// much the values still move. The estimator measures the movement itself:
// every committed vertex transition contributes |new − old| under the
// algorithm's own metric (a numeric delta for fixed-point kernels like
// PageRank, a changed-vertex count for discrete labels), so a windowed
// difference of two Totals snapshots is the mean movement per commit the
// barrier-free executors report as their Residual gauge.
package obs

import (
	"math"
	"sync/atomic"
)

// residualStripe is one worker's private accumulator, padded to a cache
// line so concurrent committers never false-share.
type residualStripe struct {
	sumBits atomic.Uint64 // float64 bits of the residual sum (CAS-added)
	changed atomic.Int64  // commits with new != old
	updates atomic.Int64  // commits observed
	_       [40]byte
}

// addFloat accumulates d into the stripe's float sum with a CAS loop. The
// stripe is worker-private, so the CAS succeeds first try outside of
// observation-plane races; the loop only exists to keep readers lock-free.
func (s *residualStripe) addFloat(d float64) {
	for {
		o := s.sumBits.Load()
		n := math.Float64bits(math.Float64frombits(o) + d)
		if s.sumBits.CompareAndSwap(o, n) {
			return
		}
	}
}

// ResidualEstimator accumulates per-commit residual contributions across
// per-worker stripes. All methods are safe on a nil receiver, so engines
// guard observation with one pointer test; Observe performs no heap
// allocation and touches only the calling worker's stripe.
type ResidualEstimator struct {
	// delta maps a committed transition to its residual contribution. Nil
	// selects the discrete default: 1 when the value changed, else 0.
	delta   func(old, new uint64) float64
	stripes []residualStripe
}

// NewResidualEstimator builds an estimator for `workers` workers. delta is
// the algorithm's residual metric (e.g. |Δrank| for PageRank); nil counts
// changed vertices.
func NewResidualEstimator(workers int, delta func(old, new uint64) float64) *ResidualEstimator {
	if workers < 1 {
		workers = 1
	}
	return &ResidualEstimator{delta: delta, stripes: make([]residualStripe, workers)}
}

// Observe records one committed vertex transition by worker.
func (r *ResidualEstimator) Observe(worker int, old, new uint64) {
	if r == nil {
		return
	}
	if worker < 0 || worker >= len(r.stripes) {
		worker = 0
	}
	s := &r.stripes[worker]
	s.updates.Add(1)
	if old != new {
		s.changed.Add(1)
	}
	var d float64
	if r.delta != nil {
		d = r.delta(old, new)
	} else if old != new {
		d = 1
	}
	if d != 0 {
		s.addFloat(d)
	}
}

// ResidualTotals is a point-in-time snapshot of the accumulated residual.
// Windowed residuals are differences of two snapshots.
type ResidualTotals struct {
	// Sum is the accumulated residual metric (Σ delta over all commits).
	Sum float64
	// Changed counts commits whose value differed from the previous one.
	Changed int64
	// Updates counts all observed commits.
	Updates int64
}

// Totals merges the stripes. Safe concurrently with Observe; nil-safe
// (zero totals).
func (r *ResidualEstimator) Totals() ResidualTotals {
	var t ResidualTotals
	if r == nil {
		return t
	}
	for i := range r.stripes {
		s := &r.stripes[i]
		t.Sum += math.Float64frombits(s.sumBits.Load())
		t.Changed += s.changed.Load()
		t.Updates += s.updates.Load()
	}
	return t
}

// Reset zeroes every stripe so one estimator can serve repeated runs.
func (r *ResidualEstimator) Reset() {
	if r == nil {
		return
	}
	for i := range r.stripes {
		s := &r.stripes[i]
		s.sumBits.Store(0)
		s.changed.Store(0)
		s.updates.Store(0)
	}
}
