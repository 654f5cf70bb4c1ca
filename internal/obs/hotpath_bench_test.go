// Benchmarks for the observation hot path — the per-event cost an engine
// pays when observation is ON. (When it is OFF the cost is a single
// nil-receiver pointer test, and alloc_test.go proves the engine hot paths
// stay 0 allocs/op.) Every op here must report 0 allocs/op too: the delay
// clocks and residual stripes allocate only at construction.
package obs

import (
	"math"
	"sync/atomic"
	"testing"
)

// BenchmarkDelayClockStampObserve is the single-worker publish/read round
// trip: one Advance, one Stamp, one ObserveRead — the full delay-clock cost
// of one executed update that reads one published value.
func BenchmarkDelayClockStampObserve(b *testing.B) {
	c := NewDelayClock(1, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Advance()
		slot := uint32(i) & (1<<12 - 1)
		c.Stamp(slot)
		c.ObserveRead(0, slot)
	}
}

// BenchmarkDelayClockObserveReadParallel contends the shared epoch counter
// and stamp array the way a work-stealing run does: every worker reads
// slots stamped by the others while the epoch advances underneath.
func BenchmarkDelayClockObserveReadParallel(b *testing.B) {
	const workers = 8
	c := NewDelayClock(workers, 1<<12)
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1)-1) % workers
		i := uint32(w)
		for pb.Next() {
			i++
			slot := i & (1<<12 - 1)
			c.Advance()
			c.Stamp(slot)
			c.ObserveRead(w, slot)
		}
	})
}

// BenchmarkResidualObserve is one committed transition through the striped
// estimator with a real float delta function, the call the benchmark's
// obs.residual_observe_ns row times.
func BenchmarkResidualObserve(b *testing.B) {
	delta := func(old, new uint64) float64 {
		return math.Abs(math.Float64frombits(new) - math.Float64frombits(old))
	}
	r := NewResidualEstimator(1, delta)
	old := math.Float64bits(1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		new := math.Float64bits(1.0 + float64(i&1023)*1e-6)
		r.Observe(0, old, new)
		old = new
	}
}
