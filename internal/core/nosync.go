package core

// The NoSync scheduler is the *pure* asynchronous execution model the paper
// defers to future work: no iterations, no barriers — an update that writes
// an incident edge immediately schedules the opposite endpoint, and workers
// run scheduled updates as they find them. DESIGN.md §14 gives the design
// and the measurements behind it; in short:
//
//   - Each worker owns a Chase–Lev deque. Wakeups go onto the posting
//     worker's deque, and every consumer — the owner included — takes the
//     *oldest* task, so backlogs drain FIFO: owner-side LIFO re-executes
//     label-correcting traversals Bellman-Ford-style (>170× the updates on
//     the cage15 analog). A dry worker claims the next seed chunk or
//     batch-steals from a random victim.
//   - Coalescing scheduled states (frontier.States): duplicate wakeups
//     collapse into one queue slot per vertex, and an update never
//     overlaps itself — the system model's per-vertex exclusion.
//   - Vertex words are plain loads (only the vertex's own update writes
//     them); edge words go through the configured edgedata.Mode.
//   - Distributed termination detection in the style of Mattern's double
//     counting: per-worker enqueue/done counters plus an idle flag,
//     confirmed by two consecutive sweeps that observe all workers idle and
//     identical counter vectors with sum(enq) == sum(done). The counter
//     ordering (enq before push, done after finish, sweeps read done before
//     enq) is what makes the racy reads sound.
//
// Admission is gated by the paper's eligibility analysis: NewEngine
// refuses a NoSync engine whose Options.Verdict is not covered by Theorem
// 1 or 2, because with no barriers nothing else stands between a
// conflict-ineligible update function and a corrupted fixed point.

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"ndgraph/internal/frontier"
	"ndgraph/internal/obs"
	"ndgraph/internal/rng"
	"ndgraph/internal/sched"
)

// sampleWindow is the per-worker update count between telemetry samples.
// A barrier-free run has no iteration boundary to hang an event on, so
// each worker emits one event per window of updates it executes.
const sampleWindow = 4096

// noSyncRefusal names the first option of o a NoSync engine cannot honour,
// or returns "". Each one hangs on an iteration barrier or on per-access
// instrumentation that NoSync does not have. A fault injector is admitted
// (its heal hook posts on the faulting worker's deque) unless its plan
// crashes at an iteration boundary: NoSync never reaches one, and a
// planned crash that silently never fires would be worse than a refusal.
func noSyncRefusal(o Options) string {
	switch {
	case o.Inject != nil && o.Inject.Plan().CrashIter > 0:
		return "an Inject plan with CrashIter > 0"
	case o.CheckpointEvery > 0:
		return "CheckpointEvery"
	case o.StallWindow > 0:
		return "StallWindow"
	case o.EnableCensus:
		return "EnableCensus"
	case o.PotentialCensus:
		return "PotentialCensus"
	case o.Observer.SampleConflicts():
		return "SampleConflicts"
	case o.Amplify:
		return "Amplify"
	case o.Dispatch == sched.Dynamic:
		return "Dispatch: Dynamic"
	case o.OnEdgeWrite != nil:
		return "OnEdgeWrite"
	case o.Trace != nil && o.Trace.CommitsEnabled():
		return "a commit-log Trace"
	}
	return ""
}

// nsWorker is one worker's shared-visible termination-detection state and
// owner-private counters, padded to its own cache line pair so sweeps by
// idle workers never false-share with busy workers' increments.
type nsWorker struct {
	// enq counts tasks pushed onto THIS worker's deque (by its owner:
	// wakeups, re-queues, and its share of the seeds). Incremented BEFORE
	// the push.
	enq atomic.Int64
	// done counts tasks this worker retired (popped or stolen from any
	// deque, then finished). Incremented AFTER the state Finish and any
	// resulting re-queue.
	done atomic.Int64
	// idle is 1 while the worker has no task and is probing/sweeping.
	idle atomic.Uint32
	// The rest is owner-private. steals/idleTransitions are read by Run
	// after the pool barrier; nUpdates is the worker's telemetry window,
	// drained by emitSample with its context's access counters.
	steals, idleTransitions int64
	nUpdates                int64
	// emittedSteals/emittedIdle snapshot this worker's counters at its
	// last telemetry emit.
	emittedSteals, emittedIdle int64
	_                          [64]byte
}

// noSync is a NoSync engine's run state: the queues, the termination
// counters and the telemetry. Updates run on the engine's worker contexts.
type noSync struct {
	e *Engine

	samples atomic.Int64 // telemetry sample sequence

	// max is the run's update cap (Options.MaxIters × |V|); stealSeed
	// seeds the per-worker victim-selection RNG (0 is a fixed default).
	max       int64
	stealSeed uint64

	// Everything above — and the engine's fields — is read on every edge
	// access or schedule and written at most a few times per run. updates
	// is bumped by every worker on every update, so it gets a cache line to
	// itself: sharing one with the stop flag made every schedule miss.
	_       [64]byte
	updates atomic.Int64
	_       [56]byte

	state    *frontier.States
	deques   []*sched.Deque
	workers  []nsWorker
	stealBuf [][]int // per-worker scratch for batch steals

	// live is the deduplicated seed list of the current run (the seeds
	// whose initial Post won); seedCursor is the next unclaimed index into
	// it. Workers claim seedChunk-sized runs lazily (see claimChunk).
	live       []int
	seedCursor atomic.Int64
	quiet      atomic.Bool
}

func newNoSync(e *Engine) *noSync {
	p := e.opts.Threads
	x := &noSync{
		e:        e,
		state:    frontier.NewStates(e.g.N()),
		deques:   make([]*sched.Deque, p),
		workers:  make([]nsWorker, p),
		stealBuf: make([][]int, p),
	}
	for w := range x.deques {
		x.deques[w] = sched.NewDeque(0)
		x.stealBuf[w] = make([]int, stealBatchCap)
	}
	return x
}

// post requests an execution of v on behalf of worker w: if the scheduled-
// state machine awards the queue slot, the task goes to w's own deque. The
// enqueue counter is incremented BEFORE the push — a task visible in a
// deque is always already visible in sum(enq), which the termination
// sweeps depend on.
func (x *noSync) post(w, v int) {
	if x.e.loop.Stopped() {
		return
	}
	if x.state.Post(v) {
		x.workers[w].enq.Add(1)
		x.deques[w].Push(v)
	}
}

// runNoSync drains the computation to quiescence with no barriers, running
// e.curUpdate on the worker contexts. Its seeds are the scheduled set; a
// converged run leaves that set empty, a stopped one leaves it as it was.
func (e *Engine) runNoSync() (Result, error) {
	x := e.ns
	seeds := e.front.Members()
	if len(seeds) == 0 {
		return Result{Converged: true}, nil
	}
	n := int64(e.g.N()) // > 0: there are seeds
	if x.max = int64(e.opts.MaxIters) * n; x.max/n != int64(e.opts.MaxIters) {
		x.max = math.MaxInt64 // MaxIters × |V| overflowed
	}
	e.loop.Begin()
	x.updates.Store(0)
	e.clock.Reset()
	x.state.Reset()
	for w := range x.workers {
		ww := &x.workers[w]
		ww.enq.Store(0)
		ww.done.Store(0)
		ww.idle.Store(0)
		// The telemetry snapshots restart with what they are deltas of.
		ww.steals, ww.idleTransitions, ww.emittedSteals, ww.emittedIdle = 0, 0, 0, 0
		// A stopped previous run may have abandoned tasks; start fresh.
		x.deques[w] = sched.NewDeque(len(seeds)/len(x.workers) + 1)
	}
	x.quiet.Store(false)
	// Mark every seed Scheduled up front, but don't hand any out yet:
	// workers claim seedChunk-sized runs off a shared cursor as their
	// deques run dry (claimChunk). The two halves matter separately.
	// Pre-marking is the coalescing shield — a mid-run improvement to a
	// not-yet-claimed seed deduplicates against its Scheduled state
	// instead of enqueueing it early, so the seed runs once, late, seeing
	// every accumulated improvement. Lazy ascending claiming keeps all
	// workers inside one moving window of vertex IDs — the property that
	// makes a global FIFO queue nearly re-execution-free —
	// and is self-balancing: a worker stuck on a hub claims fewer chunks.
	// Static deals lose one or the other: per-vertex round-robin maximizes
	// state/CSR false sharing, contiguous blocks abandon the window
	// (measured: double the update count on the banded cage15 analog),
	// and any fixed split lets fast workers run ahead of the window into
	// stale reads.
	x.live = x.live[:0]
	for _, v := range seeds {
		if x.state.Post(v) {
			x.live = append(x.live, v)
		}
	}
	x.seedCursor.Store(0)

	if len(x.live) > 0 {
		e.loop.Pool().RunEach(x.drain)
	}

	res := Result{Updates: x.updates.Load(), Converged: !e.loop.Stopped()}
	if !res.Converged {
		res.Updates = min(res.Updates, x.max)
	}
	res.Duration = e.loop.End(res.Converged)
	for w := range x.workers {
		res.Steals += x.workers[w].steals
		res.IdleTransitions += x.workers[w].idleTransitions
	}
	if o := e.opts.Observer; o != nil {
		// Final aggregate: fold every worker's leftover window into one
		// quiescence event. Workers are parked, so their counters are safe
		// to read and reset here.
		x.emitSample(o, 0, len(x.workers), res.Duration.Nanoseconds())
	}
	if res.Converged {
		e.front.LoadCurrent(nil)
	}
	return res, e.loop.Cause()
}

// drain is worker w's barrier-free work loop: pop own deque, steal when
// dry, and run distributed termination sweeps while idle.
func (x *noSync) drain(w int) {
	self := &x.workers[w]
	r := rng.New(x.stealSeed ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
	n := len(x.workers)
	prevDone, prevEnq := make([]int64, n), make([]int64, n)
	curDone, curEnq := make([]int64, n), make([]int64, n)
	havePrev := false
	idle := false
	fails := 0
	sinceClaim := 0
	for {
		if x.quiet.Load() || x.e.loop.Stopped() {
			return
		}
		// Consume the own deque from the steal end: FIFO order (see the
		// file comment for why owner-side LIFO is pathological here).
		// When dry, prefer claiming the next seed chunk (ordered, cheap)
		// over raiding another worker; steal only once the cursor is
		// exhausted. A worker therefore never observes the cursor
		// unexhausted and goes idle, which the termination sweeps rely on.
		v, ok := x.deques[w].Steal()
		if !ok && x.claimChunk(w) {
			continue
		}
		if !ok {
			var k int
			if v, k, ok = x.steal(w, r); ok {
				self.steals += int64(k)
			}
		}
		if ok {
			if idle {
				// Order matters: clear the idle flag before running, so a
				// sweep that still sees us idle is guaranteed to also see
				// our claimed task's enq > done mismatch.
				idle = false
				self.idle.Store(0)
			}
			havePrev = false
			fails = 0
			x.execute(w, v)
			// Liveness: a self-sustaining workload — a fixed-point kernel
			// that never locally converges, e.g. PageRank{Epsilon: 0} —
			// can keep every deque non-empty forever, so the dry-deque
			// claim alone would never advance the seed cursor and the
			// unclaimed seeds (pre-marked Scheduled, so mid-run posts
			// deduplicate against them) would starve at their initial
			// values. Claim a chunk every seedChunk executed tasks too;
			// once the cursor is exhausted this is a single atomic load.
			if sinceClaim++; sinceClaim >= seedChunk {
				sinceClaim = 0
				x.claimChunk(w)
			}
			continue
		}
		if !idle {
			idle = true
			self.idleTransitions++
			self.idle.Store(1)
		}
		allIdle := x.sweep(curDone, curEnq)
		if allIdle && sumEqual(curDone, curEnq) {
			if havePrev && vecEqual(prevDone, curDone) && vecEqual(prevEnq, curEnq) {
				// Two consecutive all-idle sweeps with identical counters
				// and sum(enq) == sum(done): the system was quiescent at
				// every instant between the sweeps. Quiescence is stable,
				// so announce termination.
				x.quiet.Store(true)
				return
			}
			prevDone, curDone = curDone, prevDone
			prevEnq, curEnq = curEnq, prevEnq
			havePrev = true
		} else {
			havePrev = false
		}
		if fails++; fails > 128 {
			time.Sleep(5 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// seedChunk is the claim granularity of the shared seed cursor (see
// claimChunk). 64 vertices cover four 16-state cache lines and a few KB
// of CSR edge data — enough for private streaming, small enough that the
// workers' shared ID window stays tight and load stays balanced.
const seedChunk = 64

// claimChunk claims the next run of up to seedChunk unclaimed seeds for
// worker w and moves them onto w's own deque, reporting whether the cursor
// still had seeds to hand out. Every vertex in live is already Scheduled
// (Run pre-marked it and mid-run posts deduplicate against that state), so
// the claim is a plain push — exactly the deferred half of post: the
// enqueue counter is incremented before each push, so a claimed seed is
// never visible in a deque without being counted in sum(enq).
func (x *noSync) claimChunk(w int) bool {
	if x.seedCursor.Load() >= int64(len(x.live)) {
		return false
	}
	c := x.seedCursor.Add(seedChunk) - seedChunk
	if c >= int64(len(x.live)) {
		return false
	}
	end := c + seedChunk
	if end > int64(len(x.live)) {
		end = int64(len(x.live))
	}
	for _, v := range x.live[c:end] {
		x.workers[w].enq.Add(1)
		x.deques[w].Push(v)
	}
	return true
}

// stealBatchCap bounds one batch steal. Tasks posted together are a
// vertex neighbourhood, so migrating a run of them keeps the thief working
// on adjacent state; the cap keeps any one raid from emptying a deep
// victim into a single worker.
const stealBatchCap = 256

// steal probes every other worker's deque once, in a randomly rotated
// order. On the first hit it claims up to half the victim's backlog in one
// CAS, re-homes all but the first task into w's own deque, and returns
// that first task. Batch migration matters: one task per steal turns the
// endgame — one deep deque, many idle thieves — into a serial drain of the
// victim's top cache line, with every task (and its vertex data) bouncing
// to a different core.
func (x *noSync) steal(w int, r *rng.Xoshiro256StarStar) (int, int, bool) {
	n := len(x.deques)
	if n == 1 {
		return 0, 0, false
	}
	buf := x.stealBuf[w]
	off := r.Intn(n - 1)
	for i := 0; i < n-1; i++ {
		victim := (w + 1 + (off+i)%(n-1)) % n
		if k := x.deques[victim].StealBatch(buf); k > 0 {
			for _, v := range buf[1:k] {
				x.deques[w].Push(v)
			}
			return buf[0], k, true
		}
	}
	return 0, 0, false
}

// sweep snapshots the termination counters: every done counter first, then
// every idle flag and enqueue counter. Reading done before enq means a
// racing task can only make the sums look *unequal* (its enqueue is
// visible before its completion), never spuriously equal.
func (x *noSync) sweep(done, enq []int64) (allIdle bool) {
	for i := range x.workers {
		done[i] = x.workers[i].done.Load()
	}
	allIdle = true
	for i := range x.workers {
		if x.workers[i].idle.Load() == 0 {
			allIdle = false
		}
		enq[i] = x.workers[i].enq.Load()
	}
	return allIdle
}

func sumEqual(a, b []int64) bool {
	var sa, sb int64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	return sa == sb
}

func vecEqual(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// execute runs one claimed task through the scheduled-state machine,
// re-queueing the vertex if a wakeup arrived mid-run. The done counter is
// incremented only after the state transition AND any re-queue's enqueue
// increment, preserving the sweeps' enq-before-done visibility order.
func (x *noSync) execute(w, v int) {
	self := &x.workers[w]
	x.state.Begin(v)
	switch {
	case x.e.loop.Stopped(), !x.admit():
		// Draining a stopped run (cap, cancellation, panic): retire
		// the task unrun.
	default:
		// One delay-clock epoch per executed update: staleness is then "how
		// many updates ran between this value's publish and my read".
		x.e.clock.Advance()
		x.e.runOne(w, v)
		if o := x.e.opts.Observer; o != nil {
			if self.nUpdates++; self.nUpdates >= sampleWindow {
				x.emitSample(o, w, w+1, 0)
			}
		}
	}
	if x.state.Finish(v) && !x.e.loop.Stopped() {
		self.enq.Add(1)
		x.deques[w].Push(v)
	}
	self.done.Add(1)
}

// admit is asked before every update: it stops the run on cancellation and
// counts the update against the cap, refusing it once the cap is exceeded.
func (x *noSync) admit() bool {
	if err := x.e.loop.Err(); err != nil {
		x.e.loop.Stop(err)
		return false
	}
	if x.updates.Add(1) > x.max {
		x.e.loop.Stop(nil)
		return false
	}
	return true
}

// emitSample emits one telemetry sample from the windows of workers
// lo..hi-1 — worker w alone for its window sample, every worker for the
// quiescence aggregate — draining their update counts, their contexts'
// edge-access counters and their steal and idle-transition deltas. The
// enqueued-but-unretired task count is the pending gauge; over |V| it is
// the convergence residual, the barrier tiers' active fraction with pending
// work in place of the scheduled set (zero at quiescence). Only worker lo
// (or the post-drain flush) may call this.
func (x *noSync) emitSample(o *obs.Observer, lo, hi int, durationNs int64) {
	var pending int64
	for i := range x.workers {
		pending += x.workers[i].enq.Load() - x.workers[i].done.Load()
	}
	pending = max(pending, 0)
	var p50, p99, dmax int64
	if cl := x.e.clock; cl != nil {
		h := cl.Hist()
		p50, p99, dmax = h.Quantile(0.50), h.Quantile(0.99), h.Max()
	}
	ev := obs.Event{
		Engine:        obs.EngineNoSync,
		Iter:          x.samples.Add(1) - 1,
		Scheduled:     pending,
		RWConflicts:   -1,
		WWConflicts:   -1,
		Residual:      float64(pending) / float64(x.e.g.N()),
		DurationNanos: durationNs,
		DelayP50:      p50,
		DelayP99:      p99,
		DelayMax:      dmax,
	}
	for w := lo; w < hi; w++ {
		self, c := &x.workers[w], &x.e.workers[w]
		ev.Updates += self.nUpdates
		ev.EdgeReads += c.sumReads
		ev.EdgeWrites += c.sumWrites
		ev.Steals += self.steals - self.emittedSteals
		ev.IdleTransitions += self.idleTransitions - self.emittedIdle
		self.nUpdates, c.sumReads, c.sumWrites = 0, 0, 0
		self.emittedSteals, self.emittedIdle = self.steals, self.idleTransitions
	}
	o.Emit(ev)
}
