// Delay clocks: live measurement of read staleness under nondeterministic
// execution.
//
// The paper proves *eligibility* — a racy schedule still converges — but
// says nothing about how racy a given run actually was. Blanco et al.
// ("Delayed Asynchronous Iterative Graph Algorithms") sharpen the question:
// asynchronous iterative methods converge when the *delay* between a
// value's write and its read is bounded, so the empirical delay bound is
// the quantity that turns tolerance into a guarantee. A DelayClock
// measures exactly that, online, while the run is in flight:
//
//   - a global epoch counter advanced by the executor (once per iteration
//     for barrier engines, once per executed update for the barrier-free
//     tiers);
//   - a per-slot stamp array recording the epoch of each edge word's most
//     recent publish (Stamp, called at commit time);
//   - per-worker shards of an HDR-style log-bucketed histogram fed by every
//     read (ObserveRead: staleness = current epoch − write stamp).
//
// Everything on the hot path is O(1) and allocation-free: Stamp is one
// atomic load plus one atomic store, ObserveRead is two atomic loads plus
// one atomic increment into the calling worker's own cache-padded shard.
// Merging shards into a DelayHist happens only on the observation plane
// (telemetry samples, /statusz, /metrics scrapes).
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram geometry: exact buckets for small delays (where barrier engines
// live), then log-spaced octaves with linear sub-buckets (HDR style) for the
// long tail a work-stealing run produces, and one saturating overflow bucket.
const (
	delayExact   = 16 // exact counts for staleness 0..15 epochs
	delaySub     = 4  // linear sub-buckets per power-of-two octave
	delayOctaves = 20 // octaves above the exact range: covers < 2^24 epochs
	// delayBuckets is the total bucket count, overflow included.
	delayBuckets = delayExact + delayOctaves*delaySub + 1
	// delayOverflowLow is the smallest staleness that lands in the overflow
	// bucket.
	delayOverflowLow = int64(1) << (delayOctaves + 4)
)

// delayBucket maps a staleness (in epochs) to its bucket index.
func delayBucket(d int64) int {
	if d < delayExact {
		return int(d)
	}
	l := bits.Len64(uint64(d)) // >= 5 since d >= 16
	oct := l - 5
	if oct >= delayOctaves {
		return delayBuckets - 1 // saturate: the overflow bucket
	}
	sub := int((uint64(d) >> (l - 3)) & (delaySub - 1))
	return delayExact + oct*delaySub + sub
}

// delayBucketLow returns the smallest staleness the bucket covers, the value
// quantile queries report.
func delayBucketLow(i int) int64 {
	if i < delayExact {
		return int64(i)
	}
	if i >= delayBuckets-1 {
		return delayOverflowLow
	}
	i -= delayExact
	oct, sub := i/delaySub, i%delaySub
	base := int64(1) << (oct + 4)
	return base + int64(sub)*(base/delaySub)
}

// delayShard is one worker's private histogram. The buckets are atomics so
// observation-plane readers (telemetry samples, /statusz) can merge shards
// while workers keep counting; the trailing pad keeps neighbouring shards
// off each other's cache lines.
type delayShard struct {
	buckets [delayBuckets]atomic.Int64
	_       [64]byte
}

// DelayClock measures read staleness in epochs: the number of epoch
// advances between a value's publish (Stamp) and a read of it
// (ObserveRead). One clock serves one executor run; the executor defines
// the epoch (iterations for barrier engines, executed updates for
// barrier-free ones). All methods are safe on a nil receiver (no-ops /
// zero values), so engines guard their stamping with a single pointer test.
type DelayClock struct {
	epoch  atomic.Int64
	stamps []atomic.Int64
	shards []delayShard
}

// NewDelayClock builds a clock for `workers` workers over `slots` value
// slots (conventionally the graph's edge-word count). This is the only
// allocating call; the per-read and per-write paths are allocation-free.
func NewDelayClock(workers, slots int) *DelayClock {
	if workers < 1 {
		workers = 1
	}
	if slots < 0 {
		slots = 0
	}
	return &DelayClock{
		stamps: make([]atomic.Int64, slots),
		shards: make([]delayShard, workers),
	}
}

// Advance moves the clock one epoch forward and returns the new epoch.
// Barrier engines call it once per iteration (staleness is then measured in
// iterations); the NoSync scheduler calls it once per executed update.
func (c *DelayClock) Advance() int64 {
	if c == nil {
		return 0
	}
	return c.epoch.Add(1)
}

// Stamp records that slot was published at the current epoch. Called at
// commit time by the writing worker; one atomic load + one atomic store.
func (c *DelayClock) Stamp(slot uint32) {
	if c == nil || int(slot) >= len(c.stamps) {
		return
	}
	c.stamps[slot].Store(c.epoch.Load())
}

// ObserveRead records a read of slot by worker: the staleness (current
// epoch − publish stamp, clamped at 0) is bucketed into the worker's own
// histogram shard. Two atomic loads + one atomic add, no allocation.
func (c *DelayClock) ObserveRead(worker int, slot uint32) {
	if c == nil || int(slot) >= len(c.stamps) {
		return
	}
	d := c.epoch.Load() - c.stamps[slot].Load()
	if d < 0 {
		// A concurrent Advance between the two loads; the read is fresh.
		d = 0
	}
	if worker < 0 || worker >= len(c.shards) {
		worker = 0
	}
	c.shards[worker].buckets[delayBucket(d)].Add(1)
}

// Reset zeroes the epoch, every stamp, and every shard, so one clock can
// serve repeated runs of the same executor.
func (c *DelayClock) Reset() {
	if c == nil {
		return
	}
	c.epoch.Store(0)
	for i := range c.stamps {
		c.stamps[i].Store(0)
	}
	for s := range c.shards {
		for b := range c.shards[s].buckets {
			c.shards[s].buckets[b].Store(0)
		}
	}
}

// Hist merges the per-worker shards into one point-in-time histogram.
// Returned by value (fixed-size buckets), so taking a snapshot allocates
// nothing; safe to call concurrently with stamping. Nil-safe (zero hist).
func (c *DelayClock) Hist() DelayHist {
	var h DelayHist
	if c == nil {
		return h
	}
	for s := range c.shards {
		for b := range c.shards[s].buckets {
			n := c.shards[s].buckets[b].Load()
			h.counts[b] += n
			h.total += n
		}
	}
	return h
}

// DelayHist is a merged staleness histogram snapshot.
type DelayHist struct {
	counts [delayBuckets]int64
	total  int64
}

// Count returns the number of observed reads.
func (h DelayHist) Count() int64 { return h.total }

// Overflow returns the reads whose staleness saturated the histogram range
// (≥ 2^24 epochs).
func (h DelayHist) Overflow() int64 { return h.counts[delayBuckets-1] }

// Quantile returns the staleness at quantile q ∈ [0,1] (the lower bound of
// the bucket containing that rank; exact below 16 epochs). Zero when the
// histogram is empty.
func (h DelayHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum int64
	for b := 0; b < delayBuckets; b++ {
		cum += h.counts[b]
		if cum > rank {
			return delayBucketLow(b)
		}
	}
	return delayBucketLow(delayBuckets - 1)
}

// Max returns the lower bound of the highest occupied bucket — the measured
// empirical delay bound, at bucket resolution. Zero when empty.
func (h DelayHist) Max() int64 {
	for b := delayBuckets - 1; b >= 0; b-- {
		if h.counts[b] != 0 {
			return delayBucketLow(b)
		}
	}
	return 0
}
