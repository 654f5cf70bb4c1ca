package obs

import (
	"sync"
	"testing"
)

// Staleness of 0..15 epochs must be measured exactly: the barrier engines
// live entirely in that range (a read is at most one iteration stale), so
// bucket-resolution error there would blur the core-vs-nosync contrast the
// staleness experiment reports.
func TestDelayBucketExactRange(t *testing.T) {
	for d := int64(0); d < delayExact; d++ {
		if got := delayBucket(d); got != int(d) {
			t.Errorf("delayBucket(%d) = %d, want %d", d, got, d)
		}
		if got := delayBucketLow(int(d)); got != d {
			t.Errorf("delayBucketLow(%d) = %d, want %d", d, got, d)
		}
	}
}

// Every bucket's lower bound must map back to that bucket, and bucket
// assignment must be monotone in the staleness — otherwise quantile queries
// would report bounds that aren't bounds.
func TestDelayBucketBoundsRoundTrip(t *testing.T) {
	for b := 0; b < delayBuckets; b++ {
		low := delayBucketLow(b)
		if got := delayBucket(low); got != b {
			t.Errorf("delayBucket(delayBucketLow(%d)=%d) = %d", b, low, got)
		}
	}
	prev := -1
	for _, d := range []int64{0, 1, 15, 16, 17, 19, 20, 31, 32, 63, 64, 1000, 1 << 20, delayOverflowLow - 1, delayOverflowLow, 1 << 40} {
		b := delayBucket(d)
		if b < prev {
			t.Errorf("delayBucket not monotone: bucket(%d)=%d < previous %d", d, b, prev)
		}
		prev = b
		if low := delayBucketLow(b); low > d {
			t.Errorf("delayBucketLow(%d)=%d exceeds the bucketed staleness %d", b, low, d)
		}
	}
}

// Delays at and beyond 2^24 epochs saturate into the single overflow bucket
// instead of indexing out of range, and the histogram reports them.
func TestDelayHistOverflowSaturates(t *testing.T) {
	c := NewDelayClock(1, 1)
	for i := int64(0); i < delayOverflowLow+5; i++ {
		c.Advance()
	}
	c.ObserveRead(0, 0) // stamp never set: staleness = epoch - 0, deep overflow
	h := c.Hist()
	if h.Count() != 1 || h.Overflow() != 1 {
		t.Fatalf("Count=%d Overflow=%d, want 1/1", h.Count(), h.Overflow())
	}
	if got := h.Max(); got != delayOverflowLow {
		t.Errorf("Max = %d, want the overflow lower bound %d", got, delayOverflowLow)
	}
	if got := h.Quantile(0.99); got != delayOverflowLow {
		t.Errorf("Quantile(0.99) = %d, want %d", got, delayOverflowLow)
	}
}

// The staleness measured is epochs between Stamp and ObserveRead.
func TestDelayClockMeasuresPublishToRead(t *testing.T) {
	c := NewDelayClock(2, 4)
	c.Advance() // epoch 1
	c.Stamp(2)
	for i := 0; i < 5; i++ {
		c.Advance() // epoch 6
	}
	c.ObserveRead(0, 2) // staleness 5
	c.ObserveRead(1, 2) // again, other worker's shard
	c.Stamp(3)
	c.ObserveRead(0, 3) // staleness 0
	h := c.Hist()
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if got := h.Max(); got != 5 {
		t.Errorf("Max = %d, want 5", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %d, want 5", got)
	}
}

// Hist merges the per-worker shards; each worker's observations land in its
// own shard (no contention) but the snapshot sees all of them.
func TestDelayHistMergesWorkerShards(t *testing.T) {
	const workers = 4
	c := NewDelayClock(workers, 1)
	c.Stamp(0)
	c.Advance()
	for w := 0; w < workers; w++ {
		for i := 0; i <= w; i++ {
			c.ObserveRead(w, 0) // staleness 1, w+1 times
		}
	}
	if got, want := c.Hist().Count(), int64(workers*(workers+1)/2); got != want {
		t.Errorf("merged Count = %d, want %d", got, want)
	}
	// Out-of-range worker indices fold into shard 0 instead of panicking.
	c.ObserveRead(-1, 0)
	c.ObserveRead(workers+7, 0)
	if got, want := c.Hist().Count(), int64(workers*(workers+1)/2+2); got != want {
		t.Errorf("Count after clamped workers = %d, want %d", got, want)
	}
}

func TestDelayClockReset(t *testing.T) {
	c := NewDelayClock(2, 2)
	c.Stamp(0)
	c.Advance()
	c.ObserveRead(1, 0)
	c.Reset()
	if got := c.Hist().Count(); got != 0 {
		t.Errorf("Count after Reset = %d", got)
	}
	// Reset rewinds the epoch: the next Advance starts the count again.
	if e := c.Advance(); e != 1 {
		t.Errorf("first epoch after Reset = %d, want 1", e)
	}
	// Stamps must be cleared too: a stale stamp from the previous run would
	// fabricate negative staleness (clamped to 0) for the new one.
	c.ObserveRead(0, 1)
	if got := c.Hist().Max(); got != 1 {
		t.Errorf("post-Reset staleness = %d, want 1", got)
	}
}

// Every DelayClock and DelayHist method must be safe on a nil receiver /
// zero value: engines guard observation with one pointer test.
func TestDelayClockNilSafe(t *testing.T) {
	var c *DelayClock
	if c.Advance() != 0 {
		t.Error("nil Advance != 0")
	}
	c.Stamp(0)
	c.ObserveRead(0, 0)
	c.Reset()
	h := c.Hist()
	if h.Count() != 0 || h.Overflow() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("nil clock's Hist is not zero")
	}
	// Out-of-range slots are ignored, not a panic.
	real := NewDelayClock(1, 2)
	real.Stamp(99)
	real.ObserveRead(0, 99)
	if real.Hist().Count() != 0 {
		t.Error("out-of-range slot was counted")
	}
}

// Concurrent advancing, stamping, reading, and snapshotting must be safe
// (run under -race in CI) and lose no observations.
func TestDelayClockConcurrent(t *testing.T) {
	const workers, perWorker = 4, 2000
	c := NewDelayClock(workers, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				slot := uint32((w*perWorker + i) % 64)
				c.Advance()
				c.Stamp(slot)
				c.ObserveRead(w, slot)
				if i%512 == 0 {
					_ = c.Hist() // snapshot while hot
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Hist().Count(), int64(workers*perWorker); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestResidualEstimatorNumericDelta(t *testing.T) {
	r := NewResidualEstimator(2, func(old, new uint64) float64 {
		d := float64(new) - float64(old)
		if d < 0 {
			d = -d
		}
		return d
	})
	r.Observe(0, 10, 13) // |Δ| = 3
	r.Observe(1, 5, 1)   // |Δ| = 4
	r.Observe(0, 7, 7)   // unchanged
	tot := r.Totals()
	if tot.Sum != 7 {
		t.Errorf("Sum = %g, want 7", tot.Sum)
	}
	if tot.Changed != 2 || tot.Updates != 3 {
		t.Errorf("Changed/Updates = %d/%d, want 2/3", tot.Changed, tot.Updates)
	}
	r.Reset()
	if tot := r.Totals(); tot.Sum != 0 || tot.Changed != 0 || tot.Updates != 0 {
		t.Errorf("Totals after Reset = %+v", tot)
	}
}

// With no delta function the estimator counts changed vertices — the
// discrete-kernel residual (WCC labels, BFS levels).
func TestResidualEstimatorDiscreteDefault(t *testing.T) {
	r := NewResidualEstimator(1, nil)
	r.Observe(0, 1, 2)
	r.Observe(0, 2, 2)
	r.Observe(0, 2, 9)
	tot := r.Totals()
	if tot.Sum != 2 || tot.Changed != 2 || tot.Updates != 3 {
		t.Errorf("Totals = %+v, want Sum=2 Changed=2 Updates=3", tot)
	}
}

func TestResidualEstimatorConcurrent(t *testing.T) {
	const workers, per = 4, 5000
	r := NewResidualEstimator(workers, func(old, new uint64) float64 { return 1 })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Observe(w, 0, 1)
				if i%1024 == 0 {
					_ = r.Totals()
				}
			}
		}(w)
	}
	wg.Wait()
	tot := r.Totals()
	if want := float64(workers * per); tot.Sum != want {
		t.Errorf("Sum = %g, want %g", tot.Sum, want)
	}
	if tot.Updates != workers*per {
		t.Errorf("Updates = %d, want %d", tot.Updates, workers*per)
	}
}

func TestResidualEstimatorNilSafe(t *testing.T) {
	var r *ResidualEstimator
	r.Observe(0, 1, 2)
	r.Reset()
	if tot := r.Totals(); tot.Sum != 0 || tot.Updates != 0 {
		t.Error("nil estimator's Totals is not zero")
	}
	// Out-of-range workers clamp to stripe 0.
	real := NewResidualEstimator(2, nil)
	real.Observe(-3, 1, 2)
	real.Observe(17, 1, 2)
	if got := real.Totals().Updates; got != 2 {
		t.Errorf("Updates after clamped workers = %d, want 2", got)
	}
}
