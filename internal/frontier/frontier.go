package frontier

// Frontier is the double-buffered scheduled-vertex set used by the
// coordinated-scheduling engine. During iteration n the engine reads the
// *current* set S_n (fixed for the whole iteration) while update functions
// concurrently post vertices into the *next* set S_{n+1} via Schedule. At
// the barrier, Advance swaps the buffers.
//
// Schedule is one atomic bit operation and nothing else, so any number of
// worker goroutines may post concurrently without sharing any word but the
// bitset's own; reading the current set requires no synchronization because
// it is immutable between barriers.
//
// Cardinality and (optionally) scheduled-out-degree accounting happen at
// the barrier: Advance popcounts the new current set and, when an
// out-degree table is attached (AttachOutDegrees), sums its members'
// degrees — O(n/64 + |S|), about what clearing the old set and rebuilding
// the member cache already cost. Size and CurrentOutDegree then read the
// cached figures in O(1), which is what lets a direction-optimizing engine
// take Beamer-style density decisions at every barrier.
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
	// out-degree. Advance recomputes them from the bitset; the seeding
	// mutators maintain them eagerly (Test-guarded so duplicates do not
	// double-count), so Size is O(1) without touching the member cache.
	curCount int
	curDeg   int64

	// outDeg, when non-nil, is the per-vertex out-degree table behind
	// curDeg (AttachOutDegrees).
	outDeg []uint32
}

// NewFrontier returns a Frontier over a universe of n vertices with both
// buffers empty.
func NewFrontier(n int) *Frontier {
	return &Frontier{cur: NewBitset(n), next: NewBitset(n), members: make([]int, 0, n)}
}

// AttachOutDegrees supplies the per-vertex out-degree table used for
// scheduled-out-degree accounting (CurrentOutDegree, NextOutDegree). deg[v]
// must be vertex v's out-degree; len(deg) must cover the universe. The
// current set's sum is recomputed on attach. Not safe concurrently with
// iteration; nil detaches.
func (f *Frontier) AttachOutDegrees(deg []uint32) {
	f.outDeg = deg
	f.curDeg = f.sumDeg(f.cur)
}

// sumDeg folds the attached out-degree table over a bitset, or returns 0
// when none is attached.
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
func (f *Frontier) Schedule(v int) bool { return f.next.SetAtomic(v) }

// ScheduleEach posts every vertex of vs into the next iteration's set.
// Safe for concurrent use.
func (f *Frontier) ScheduleEach(vs []uint32) {
	for _, v := range vs {
		f.next.SetAtomic(int(v))
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
// iteration so far, by popcount. Only meaningful at a barrier (when no
// Schedule calls are in flight).
func (f *Frontier) NextSize() int { return f.next.Count() }

// CurrentOutDegree returns the summed out-degree of the current set, or 0
// when no out-degree table is attached. O(1).
func (f *Frontier) CurrentOutDegree() int64 { return f.curDeg }

// NextOutDegree returns the summed out-degree of the set accumulated for
// the next iteration, or 0 when no out-degree table is attached. Only
// meaningful at a barrier.
func (f *Frontier) NextOutDegree() int64 { return f.sumDeg(f.next) }

// LoadCurrent replaces the current set with exactly the given members and
// clears the next set — the checkpoint-restore entry point. Not safe
// concurrently with iteration.
func (f *Frontier) LoadCurrent(members []int) {
	f.cur.ClearAll()
	f.next.ClearAll()
	f.curCount, f.curDeg = 0, 0
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
	f.curCount = f.cur.Count()
	f.curDeg = f.sumDeg(f.cur)
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
