package frontier

import "sync/atomic"

// Frontier is the double-buffered scheduled-vertex set used by the
// coordinated-scheduling engine. During iteration n the engine reads the
// *current* set S_n (fixed for the whole iteration) while update functions
// concurrently post vertices into the *next* set S_{n+1} via Schedule. At
// the barrier, Advance swaps the buffers.
//
// Schedule uses atomic bit operations, so any number of worker goroutines
// may post concurrently; reading the current set requires no
// synchronization because it is immutable between barriers.
//
// Cardinality and (optionally) scheduled-out-degree accounting happen at
// Schedule time: newly posted vertices bump an atomic counter and, when an
// out-degree table is attached (AttachOutDegrees), an atomic degree
// accumulator. Size, NextSize, CurrentOutDegree, and NextOutDegree are
// therefore O(1) — no bitset popcount rescans — which is what lets a
// direction-optimizing engine take Beamer-style density decisions at every
// barrier for free.
type Frontier struct {
	cur, next *Bitset
	// members caches the ascending-order member list of cur, rebuilt
	// lazily on first read after Advance or a seeding mutator, so
	// executors that never need the list (pull-direction sweeps test the
	// bitset instead) skip the O(n) extraction entirely.
	members []int
	// stale marks the member cache out of date.
	stale bool

	// curCount / curDeg are the current set's cardinality and summed
	// out-degree. Maintained eagerly by every mutator (the seeding
	// mutators are Test-guarded so duplicates do not double-count), so
	// Size is O(1) without touching the member cache.
	curCount int
	curDeg   int64

	// nextCount / nextDeg account the set accumulated for the next
	// iteration. Schedule adds to both (degree only when outDeg is
	// attached) exactly when the bit is newly set; Advance claims and
	// resets them.
	nextCount atomic.Int64
	nextDeg   atomic.Int64

	// outDeg, when non-nil, is the per-vertex out-degree table driving the
	// degree accumulators (AttachOutDegrees).
	outDeg []uint32
}

// NewFrontier returns a Frontier over a universe of n vertices with both
// buffers empty.
func NewFrontier(n int) *Frontier {
	return &Frontier{cur: NewBitset(n), next: NewBitset(n), members: make([]int, 0, n)}
}

// AttachOutDegrees supplies the per-vertex out-degree table used for O(1)
// scheduled-out-degree accounting (CurrentOutDegree, NextOutDegree). deg[v]
// must be vertex v's out-degree; len(deg) must cover the universe. The
// accumulators for already-seeded members are recomputed on attach. Not
// safe concurrently with iteration; nil detaches.
func (f *Frontier) AttachOutDegrees(deg []uint32) {
	f.outDeg = deg
	f.curDeg = f.sumDeg(f.cur)
	f.nextDeg.Store(f.sumDeg(f.next))
}

// sumDeg folds the attached out-degree table over a bitset (attach-time
// reconciliation only; the hot path accumulates at Schedule time).
func (f *Frontier) sumDeg(b *Bitset) int64 {
	if f.outDeg == nil {
		return 0
	}
	var d int64
	b.ForEach(func(v int) { d += int64(f.outDeg[v]) })
	return d
}

// Len returns the universe size.
func (f *Frontier) Len() int { return f.cur.Len() }

// ScheduleAll places every vertex in the current set (the usual initial
// state: S_0 = V).
func (f *Frontier) ScheduleAll() {
	f.cur.SetAll()
	f.curCount = f.cur.Len()
	f.curDeg = f.sumDeg(f.cur)
	f.stale = true
}

// ScheduleNow places v in the *current* set. Intended for initialization
// (e.g. SSSP schedules only the source); not safe concurrently with
// iteration.
func (f *Frontier) ScheduleNow(v int) {
	if f.cur.Test(v) {
		return
	}
	f.cur.Set(v)
	f.curCount++
	if f.outDeg != nil {
		f.curDeg += int64(f.outDeg[v])
	}
	f.stale = true
}

// ScheduleNowAll places every given vertex in the *current* set — the
// batched multi-source seeding entry point. Like ScheduleNow it is for
// initialization only, not safe concurrently with iteration.
func (f *Frontier) ScheduleNowAll(vs []int) {
	for _, v := range vs {
		f.ScheduleNow(v)
	}
}

// Schedule posts v into the next iteration's set. Safe for concurrent use.
// It reports whether v was newly scheduled.
func (f *Frontier) Schedule(v int) bool {
	if !f.next.SetAtomic(v) {
		return false
	}
	f.nextCount.Add(1)
	if f.outDeg != nil {
		f.nextDeg.Add(int64(f.outDeg[v]))
	}
	return true
}

// ScheduleEach posts every vertex of vs into the next iteration's set:
// len(vs) Schedule calls with the counter updates folded into one atomic
// add each. Safe for concurrent use.
func (f *Frontier) ScheduleEach(vs []uint32) {
	var n, deg int64
	for _, v := range vs {
		if f.next.SetAtomic(int(v)) {
			n++
			if f.outDeg != nil {
				deg += int64(f.outDeg[v])
			}
		}
	}
	if n > 0 {
		f.nextCount.Add(n)
		if deg > 0 {
			f.nextDeg.Add(deg)
		}
	}
}

// Scheduled reports whether v is in the current set.
func (f *Frontier) Scheduled(v int) bool { return f.cur.Test(v) }

// PendingNext reports whether v has already been posted for the next
// iteration.
func (f *Frontier) PendingNext(v int) bool { return f.next.TestAtomic(v) }

// Members returns the current set in ascending label order. The returned
// slice is owned by the Frontier and is invalidated by Advance.
func (f *Frontier) Members() []int {
	f.refresh()
	return f.members
}

// Size returns the cardinality of the current set in O(1).
func (f *Frontier) Size() int { return f.curCount }

// NextSize returns the cardinality of the set accumulated for the next
// iteration so far, from the running counter — O(1), no popcount. Only
// meaningful at a barrier (when no Schedule calls are in flight).
func (f *Frontier) NextSize() int { return int(f.nextCount.Load()) }

// CurrentOutDegree returns the summed out-degree of the current set, or 0
// when no out-degree table is attached. O(1).
func (f *Frontier) CurrentOutDegree() int64 { return f.curDeg }

// NextOutDegree returns the summed out-degree of the set accumulated for
// the next iteration, or 0 when no out-degree table is attached. O(1);
// only meaningful at a barrier.
func (f *Frontier) NextOutDegree() int64 { return f.nextDeg.Load() }

// LoadCurrent replaces the current set with exactly the given members and
// clears the next set — the checkpoint-restore entry point. Not safe
// concurrently with iteration.
func (f *Frontier) LoadCurrent(members []int) {
	f.cur.ClearAll()
	f.next.ClearAll()
	f.curCount, f.curDeg = 0, 0
	f.nextCount.Store(0)
	f.nextDeg.Store(0)
	f.stale = true
	for _, v := range members {
		f.ScheduleNow(v)
	}
}

// Advance swaps buffers: the accumulated next set becomes current and the
// new next set is cleared. It returns the size of the new current set, so
// callers can detect convergence (size 0). Must be called at a barrier.
// The member cache is rebuilt lazily on the first Members call, so
// executors that only test membership never pay for the extraction.
func (f *Frontier) Advance() int {
	f.cur, f.next = f.next, f.cur
	f.next.ClearAll()
	f.curCount = int(f.nextCount.Swap(0))
	f.curDeg = f.nextDeg.Swap(0)
	f.stale = true
	return f.curCount
}

// refresh rebuilds the member cache if Advance or a seeding mutator left
// it stale.
func (f *Frontier) refresh() {
	if f.stale {
		f.rebuild()
	}
}

func (f *Frontier) rebuild() {
	f.members = f.cur.AppendMembers(f.members[:0])
	f.stale = false
}
