//go:build !race

package obs

import (
	"io"
	"testing"
)

// The race detector's instrumentation allocates, so the steady-state
// zero-allocation property is asserted only in non-race builds (mirroring
// internal/core's hot-path tests).

// Emit must be allocation-free in steady state — events are passed by
// value, counters live in a fixed array, the ring stores by copy, and the
// JSONL encoder reuses its buffer — so attaching an observer cannot break
// the engines' zero-alloc iteration guarantee.
func TestEmitSteadyStateDoesNotAllocate(t *testing.T) {
	o := New(Options{RingSize: 8})
	o.AttachSink(NewJSONLSink(io.Discard))
	ev := Event{TimeUnixNano: 1, Engine: EngineCore, Iter: 1, Scheduled: 100, Updates: 100, EdgeReads: 500, EdgeWrites: 50, RWConflicts: 3, WWConflicts: 1, Residual: 0.125, BarrierWaitNanos: 10, DurationNanos: 100}
	for i := 0; i < 16; i++ { // warm: fill the ring, grow the JSONL buffer
		o.Emit(ev)
	}
	if avg := testing.AllocsPerRun(200, func() { o.Emit(ev) }); avg > 0 {
		t.Errorf("Emit allocates %.2f per call in steady state, want 0", avg)
	}
}

// A zero TimeUnixNano makes Emit stamp the wall clock; that path must stay
// allocation-free too, since every engine emits unstamped events.
func TestEmitTimestampPathDoesNotAllocate(t *testing.T) {
	o := New(Options{RingSize: 8})
	ev := Event{Engine: EngineNoSync, Updates: 1}
	for i := 0; i < 16; i++ {
		o.Emit(ev)
	}
	if avg := testing.AllocsPerRun(200, func() { o.Emit(ev) }); avg > 0 {
		t.Errorf("Emit (time-stamping path) allocates %.2f per call, want 0", avg)
	}
}

// Events carrying delay quantiles take the same fold/ring/window path and
// must stay allocation-free — the nosync executor emits them per sample
// window on the hot path.
func TestEmitWithDelayFieldsDoesNotAllocate(t *testing.T) {
	o := New(Options{RingSize: 8})
	o.AttachSink(NewJSONLSink(io.Discard))
	ev := Event{TimeUnixNano: 1, Engine: EngineNoSync, Updates: 4096, Steals: 3,
		IdleTransitions: 1, Residual: 0.01, DelayP50: 2, DelayP99: 40, DelayMax: 512}
	for i := 0; i < 16; i++ {
		o.Emit(ev)
	}
	if avg := testing.AllocsPerRun(200, func() { o.Emit(ev) }); avg > 0 {
		t.Errorf("Emit (delay fields) allocates %.2f per call, want 0", avg)
	}
}

// The delay-clock hot path — Stamp on publish, ObserveRead on read, Advance
// per epoch — must be allocation-free: it runs inside every edge access of
// an observed run. Hist snapshots return by value, so even the observation
// plane allocates nothing per snapshot.
func TestDelayClockHotPathDoesNotAllocate(t *testing.T) {
	c := NewDelayClock(2, 16)
	if avg := testing.AllocsPerRun(500, func() {
		c.Advance()
		c.Stamp(5)
		c.ObserveRead(1, 5)
	}); avg > 0 {
		t.Errorf("DelayClock hot path allocates %.2f per round, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		h := c.Hist()
		_ = h.Quantile(0.99)
		_ = h.Max()
	}); avg > 0 {
		t.Errorf("DelayClock.Hist allocates %.2f per snapshot, want 0", avg)
	}
	// The disabled state is one pointer test.
	var nilClock *DelayClock
	if avg := testing.AllocsPerRun(500, func() {
		nilClock.Stamp(5)
		nilClock.ObserveRead(0, 5)
	}); avg > 0 {
		t.Errorf("nil DelayClock allocates %.2f per round, want 0", avg)
	}
}

// Residual observation is allocation-free on both the numeric-delta and
// discrete paths, as is the disabled (nil) state.
func TestResidualObserveDoesNotAllocate(t *testing.T) {
	delta := func(old, new uint64) float64 { return float64(new) - float64(old) }
	r := NewResidualEstimator(2, delta)
	if avg := testing.AllocsPerRun(500, func() { r.Observe(1, 10, 11) }); avg > 0 {
		t.Errorf("Observe (numeric) allocates %.2f per call, want 0", avg)
	}
	d := NewResidualEstimator(1, nil)
	if avg := testing.AllocsPerRun(500, func() { d.Observe(0, 1, 2) }); avg > 0 {
		t.Errorf("Observe (discrete) allocates %.2f per call, want 0", avg)
	}
	var nilR *ResidualEstimator
	if avg := testing.AllocsPerRun(500, func() { nilR.Observe(0, 1, 2) }); avg > 0 {
		t.Errorf("nil Observe allocates %.2f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = r.Totals() }); avg > 0 {
		t.Errorf("Totals allocates %.2f per snapshot, want 0", avg)
	}
}
