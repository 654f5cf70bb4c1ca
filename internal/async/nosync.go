// Package async implements the *pure* asynchronous execution model the
// paper defers to future work ("extending the applicability of results in
// this paper to more scenarios, such as pure asynchronous model"): no
// iterations, no barriers — an update that writes an incident edge
// immediately schedules the opposite endpoint, and workers run scheduled
// updates as they find them. The GRACE result the paper cites (a
// synchronous implementation of the asynchronous model has comparable
// runtime to pure asynchrony) can be checked empirically by comparing this
// executor against the barrier-based engine.
//
// NoSync is the one barrier-free executor. Each worker owns a private
// Chase–Lev deque: an update's wakeups are pushed onto the posting
// worker's own deque, and every consumer — the owner included — takes the
// *oldest* task (the deque's steal end), so each worker drains its own
// backlog in FIFO order and a worker that runs dry steals from a randomly
// probed victim. Owner-side LIFO (the classic work-stealing order) is
// deliberately NOT used: label-correcting traversals under LIFO propagate
// distances depth-first along stale long paths and re-execute vertices
// Bellman-Ford-style — measured >170× more updates than FIFO on the cage15
// analog before the budget tripped. FIFO keeps the schedule level-ish
// while the per-worker queues avoid a shared queue's serialization. No
// worker ever waits on another: the only shared-write operations on the
// hot path are the per-vertex state CAS, one top-index CAS per dequeue,
// and the edge-word stores the algorithm itself performs.
//
// Initial seeds are handed out lazily: Run pre-marks every seed Scheduled
// (so mid-run improvements to a not-yet-run seed coalesce instead of
// enqueueing it early) and workers claim ascending seedChunk-sized runs
// off a shared cursor as their deques run dry. That keeps all workers
// inside one moving window of vertex IDs — the property that makes a
// global FIFO nearly re-execution-free — while staying self-balancing;
// any static deal either maximizes false sharing (per-vertex round-robin)
// or abandons the window (contiguous blocks, measured at double the
// update count on the banded cage15 analog).
//
// Three mechanisms replace a shared queue's implicit coordination:
//
//   - Coalescing scheduled states (frontier.States): duplicate wakeups
//     collapse into one queue slot per vertex, and an update can never
//     overlap itself — the system model's per-vertex exclusion — without
//     a second "active claims" bitset or a repost loop.
//   - Value reads in the hot loop are as relaxed as the edge-data mode
//     allows: vertex words are plain loads (only the vertex's own update
//     writes them, and updates on one vertex never overlap), edge words go
//     through the configured edgedata.Mode (ModeAligned's plain aligned
//     words outside race builds, ModeAtomic/ModeLocked under -race). Go's
//     atomics are sequentially consistent, so "relaxed" here means
//     choosing *which* accesses need atomicity at all, per Section III of
//     the paper.
//   - Distributed termination detection in the style of Mattern's double
//     counting (and internal/netdist's coordinator sweep): per-worker
//     enqueue/done counters plus an idle flag, confirmed by two
//     consecutive sweeps that observe all workers idle and identical
//     counter vectors with sum(enq) == sum(done). See DESIGN.md §14 for
//     the proof sketch; the counter ordering (enq before push, done after
//     finish, sweeps read done before enq) is what makes the racy reads
//     sound.
//
// Admission is gated by the paper's eligibility analysis: NewNoSync
// refuses any algorithm whose verdict is not covered by Theorem 1 or 2,
// because with no barriers there is nothing else standing between a
// conflict-ineligible update function and a corrupted fixed point.
// NewUnadmitted is the one way around the gate; it exists only for the
// benchmark's "async-chan" contender row (see its doc comment).
package async

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/frontier"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/rng"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// NoSyncOptions configures a NoSync executor.
type NoSyncOptions struct {
	// Threads is the worker count; < 1 defaults to GOMAXPROCS.
	Threads int
	// Mode is the edge-store atomicity method. Multi-worker executors
	// refuse ModeSequential.
	Mode edgedata.Mode
	// MaxUpdates caps the total update count; 0 means 1<<26. Exceeding it
	// stops the run with Converged == false and a nil error.
	MaxUpdates int64
	// Context, when non-nil, cancels the run: workers observe cancellation
	// before each update and stop; Run returns the partial result plus the
	// context's error.
	Context context.Context
	// Observer, when non-nil, receives one telemetry event per worker per
	// sampleWindow updates (EngineNoSync: update, steal, and idle-
	// transition counters) plus a final aggregate at quiescence.
	Observer *obs.Observer
	// Trace, when non-nil, records one event per executed update (worker,
	// vertex, write count, committed vertex value). Every event carries
	// iteration 0 — there are no iterations — and capture order is the
	// real execution order, so trace.Diff against a barriered engine's
	// recording quantifies execution drift directly.
	Trace *trace.Recorder
	// Verdict is the admission ticket: the eligibility verdict for the
	// algorithm about to run, from a probe (algorithms.Probe), static
	// analysis (eligibility.AdviseStatic / ndlint), or both. NewNoSync
	// refuses a nil, ineligible, or theorem-less verdict.
	Verdict *eligibility.Verdict
	// Certificate is the probe-free admission path: when Verdict is nil
	// and a certificate is supplied, NewNoSync derives the verdict from
	// the certificate (eligibility.Certificate.Verdict, which re-derives
	// the gates and refuses tampered facts). A certificate holder should
	// first check Stale against a fresh source hash — a stale certificate
	// certifies code that no longer exists. When both are set, Verdict
	// wins and the certificate is ignored.
	Certificate *eligibility.Certificate
	// StealSeed seeds the per-worker victim-selection RNG; 0 is a fixed
	// default. Different seeds explore different interleavings.
	StealSeed uint64
	// ResidualDelta maps a committed vertex transition to its residual
	// contribution (e.g. |Δrank| for PageRank; see
	// algorithms.PageRank.ResidualDelta). When set, it sharpens the
	// telemetry Residual gauge of an observed run from the active-fraction
	// proxy to the measured value movement.
	ResidualDelta func(old, new uint64) float64
}

// NoSyncResult summarizes a no-sync run.
type NoSyncResult struct {
	Updates int64
	// Steals counts tasks taken from another worker's deque.
	Steals int64
	// IdleTransitions counts busy→idle transitions across all workers —
	// the load-imbalance signal a barrier-free engine has instead of
	// barrier-wait time.
	IdleTransitions int64
	Converged       bool
	Duration        time.Duration
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
	// steals/idleTransitions are owner-private (read by Run after the
	// pool barrier).
	steals          int64
	idleTransitions int64
	_               [88]byte
}

// NoSync owns the shared state of one work-stealing barrier-free
// computation.
type NoSync struct {
	exec
	opts NoSyncOptions

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

	views []nsView
}

// NewNoSync builds a work-stealing barrier-free executor for g. The
// verdict in opts is mandatory: only Theorem-1/2-eligible algorithms may
// run without synchronization.
func NewNoSync(g *graph.Graph, opts NoSyncOptions) (*NoSync, error) {
	if opts.Verdict == nil && opts.Certificate != nil {
		v, err := opts.Certificate.Verdict()
		if err != nil {
			return nil, fmt.Errorf("async: %w", err)
		}
		opts.Verdict = v
	}
	if err := opts.Verdict.NoSync(); err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	return NewUnadmitted(g, opts)
}

// NewUnadmitted builds a NoSync executor for g without asking for an
// eligibility verdict: opts.Verdict and opts.Certificate are ignored, and
// nothing stands between an ineligible update function and a corrupted
// fixed point. It exists only for the benchmark's "async-chan" contender
// row, which runs every workload's algorithm without a verdict the way the
// retired channel executor did, and goes when that row does. Everything
// else calls NewNoSync.
func NewUnadmitted(g *graph.Graph, opts NoSyncOptions) (*NoSync, error) {
	if g == nil {
		return nil, fmt.Errorf("async: nil graph")
	}
	if opts.Threads < 1 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Threads > 1 && opts.Mode == edgedata.ModeSequential {
		return nil, fmt.Errorf("async: %d workers require a concurrent edge-data mode", opts.Threads)
	}
	x := &NoSync{
		opts:     opts,
		state:    frontier.NewStates(g.N()),
		deques:   make([]*sched.Deque, opts.Threads),
		workers:  make([]nsWorker, opts.Threads),
		stealBuf: make([][]int, opts.Threads),
		views:    make([]nsView, opts.Threads),
	}
	x.init(g, opts.Mode, opts.Threads, obs.EngineNoSync, opts.Observer, opts.ResidualDelta, opts.Trace)
	for w := range x.deques {
		x.deques[w] = sched.NewDeque(0)
		x.stealBuf[w] = make([]int, stealBatchCap)
		x.views[w] = nsView{viewBase: viewBase{s: &x.exec, worker: w, plain: x.clock == nil}, x: x}
	}
	return x, nil
}

// post requests an execution of v on behalf of worker w: if the scheduled-
// state machine awards the queue slot, the task goes to w's own deque. The
// enqueue counter is incremented BEFORE the push — a task visible in a
// deque is always already visible in sum(enq), which the termination
// sweeps depend on.
func (x *NoSync) post(w, v int) {
	if x.life.Stopped() {
		return
	}
	if x.state.Post(v) {
		x.workers[w].enq.Add(1)
		x.deques[w].Push(v)
	}
}

// Run drains the computation to quiescence with no barriers and returns
// statistics. The update function receives views satisfying
// core.VertexView, so the same algorithm implementations run under every
// execution model in the repository.
func (x *NoSync) Run(update core.UpdateFunc) (NoSyncResult, error) {
	if update == nil {
		return NoSyncResult{}, fmt.Errorf("async: nil update function")
	}
	if len(x.seeds) == 0 {
		return NoSyncResult{Converged: true}, nil
	}
	x.begin(x.opts.Context, x.opts.MaxUpdates)
	x.state.Reset()
	for w := range x.workers {
		ww := &x.workers[w]
		ww.enq.Store(0)
		ww.done.Store(0)
		ww.idle.Store(0)
		ww.steals, ww.idleTransitions = 0, 0
		// A stopped previous run may have abandoned tasks; start fresh.
		x.deques[w] = sched.NewDeque(len(x.seeds)/len(x.workers) + 1)
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
	for _, v := range x.seeds {
		if x.state.Post(v) {
			x.live = append(x.live, v)
		}
	}
	x.seedCursor.Store(0)

	if len(x.live) > 0 {
		x.pool.RunEach(func(w int) { x.drain(w, update) })
	}

	var res NoSyncResult
	var err error
	res.Updates, res.Converged, res.Duration, err = x.end()
	for w := range x.workers {
		res.Steals += x.workers[w].steals
		res.IdleTransitions += x.workers[w].idleTransitions
	}
	if o := x.opts.Observer; o != nil {
		// Final aggregate: fold every worker's leftover window into one
		// quiescence event. Workers are parked, so their views are safe to
		// read and reset here.
		agg := &x.views[0]
		for i := 1; i < len(x.views); i++ {
			agg.absorb(&x.views[i].viewBase)
		}
		x.emitSample(o, agg, res.Duration.Nanoseconds())
	}
	return res, err
}

// drain is worker w's barrier-free work loop: pop own deque, steal when
// dry, and run distributed termination sweeps while idle.
func (x *NoSync) drain(w int, update core.UpdateFunc) {
	self := &x.workers[w]
	vw := &x.views[w]
	r := rng.New(x.opts.StealSeed ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
	n := len(x.workers)
	prevDone, prevEnq := make([]int64, n), make([]int64, n)
	curDone, curEnq := make([]int64, n), make([]int64, n)
	havePrev := false
	idle := false
	fails := 0
	sinceClaim := 0
	for {
		if x.quiet.Load() || x.life.Stopped() {
			return
		}
		// Consume the own deque from the steal end: FIFO order (see the
		// package comment for why owner-side LIFO is pathological here).
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
			x.execute(w, vw, update, v)
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
func (x *NoSync) claimChunk(w int) bool {
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
func (x *NoSync) steal(w int, r *rng.Xoshiro256StarStar) (int, int, bool) {
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
func (x *NoSync) sweep(done, enq []int64) (allIdle bool) {
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
func (x *NoSync) execute(w int, vw *nsView, update core.UpdateFunc, v int) {
	self := &x.workers[w]
	x.state.Begin(v)
	switch {
	case x.life.Stopped(), !x.admit():
		// Draining a stopped run (cap, cancellation, panic): retire
		// the task unrun.
	default:
		// One delay-clock epoch per executed update: staleness is then "how
		// many updates ran between this value's publish and my read".
		x.clock.Advance()
		x.runOne(&vw.viewBase, vw, update, uint32(v))
		if o := x.opts.Observer; o != nil {
			if vw.nUpdates++; vw.nUpdates >= sampleWindow {
				x.emitSample(o, vw, 0)
			}
		}
	}
	if x.state.Finish(v) && !x.life.Stopped() {
		self.enq.Add(1)
		x.deques[w].Push(v)
	}
	self.done.Add(1)
}

// emitSample emits one telemetry sample from worker-view vw's accumulated
// window, adding the steal and idle-transition deltas of vw's worker; the
// enqueued-but-unretired task count is the executor's pending gauge.
func (x *NoSync) emitSample(o *obs.Observer, vw *nsView, durationNs int64) {
	var pending int64
	for i := range x.workers {
		pending += x.workers[i].enq.Load() - x.workers[i].done.Load()
	}
	ev := x.sample(&vw.viewBase, max(pending, 0), durationNs)
	self := &x.workers[vw.worker]
	ev.Steals = self.steals - vw.emittedSteals
	ev.IdleTransitions = self.idleTransitions - vw.emittedIdle
	vw.emittedSteals, vw.emittedIdle = self.steals, self.idleTransitions
	o.Emit(ev)
}

// nsView adapts the executor to core.VertexView: writes schedule the
// opposite endpoint onto the writing worker's own deque immediately.
type nsView struct {
	viewBase
	x *NoSync
	// emittedSteals/emittedIdle snapshot the worker's counters at its last
	// telemetry emit.
	emittedSteals, emittedIdle int64
}

func (c *nsView) SetInEdgeVal(k int, w uint64) {
	c.store(c.InEdgeID(k), w)
	c.x.post(c.worker, int(c.InNeighbor(k)))
}

func (c *nsView) SetOutEdgeVal(k int, w uint64) {
	c.store(c.OutEdgeID(k), w)
	c.x.post(c.worker, int(c.OutNeighbor(k)))
}

func (c *nsView) SetOutEdgeVals(w uint64) {
	if !c.plain {
		core.ScatterOut(c, w)
		return
	}
	for k, n := 0, c.fillOut(w); k < n; k++ {
		c.x.post(c.worker, int(c.OutNeighbor(k)))
	}
}

func (c *nsView) InEdgeVals() []uint64  { return c.inVals(c) }
func (c *nsView) OutEdgeVals() []uint64 { return c.outVals(c) }
func (c *nsView) ScheduleSelf()         { c.x.post(c.worker, int(c.V())) }

var _ core.VertexView = (*nsView)(nil)
