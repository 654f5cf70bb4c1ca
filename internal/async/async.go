// Package async implements the *pure* asynchronous execution model the
// paper defers to future work ("extending the applicability of results in
// this paper to more scenarios, such as pure asynchronous model"): no
// iterations, no barriers — worker goroutines drain a shared work queue of
// update tasks, and an update that writes an incident edge immediately
// enqueues the opposite endpoint. The GRACE result the paper cites (a
// synchronous implementation of the asynchronous model has comparable
// runtime to pure asynchrony) can be checked empirically by comparing this
// executor against the barrier-based engine.
//
// A vertex appears at most once in the queue at any moment (a pending
// bitset dedups enqueues); clearing the pending bit *before* running the
// update guarantees that a write arriving mid-update re-enqueues the
// vertex, so no wakeup is lost. A second bitset of *active* claims keeps
// two workers from running the same vertex's update concurrently — the
// system model never overlaps an update with itself, and without the
// claim a re-enqueued vertex could race its still-running update on the
// vertex data word.
package async

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// sampleWindow is the per-worker update count between telemetry samples.
// Barrier-free executors have no iteration boundary to hang an event on, so
// each worker emits one event per window of updates it executes.
const sampleWindow = 4096

// Options configures an Executor.
type Options struct {
	// Threads is the worker count; < 1 defaults to GOMAXPROCS.
	Threads int
	// Mode is the edge-store atomicity method. Multi-worker executors
	// refuse ModeSequential.
	Mode edgedata.Mode
	// MaxUpdates caps the total update count (the barrier-free analog of
	// an iteration cap); 0 means 1<<26. Exceeding it stops the run with
	// Converged == false.
	MaxUpdates int64
	// Context, when non-nil, cancels the run: workers observe cancellation
	// before each update, stop scheduling new work, drain the queue, and
	// Run returns the partial Result plus the context's error.
	Context context.Context
	// Inject, when non-nil, arms the fault injector for the duration of
	// the run (see package fault); faulted edges re-enqueue both endpoints.
	Inject *fault.Injector
	// Observer, when non-nil, receives one telemetry event per worker per
	// sampleWindow updates plus a final aggregate at quiescence.
	Observer *obs.Observer
	// Trace, when non-nil, records one event per executed update (worker,
	// vertex, write count, committed vertex value). Barrier-free runs have
	// no iterations, so every event records iteration 0; capture order is
	// the real execution order the queue produced.
	Trace *trace.Recorder
	// QueueCap bounds the shared channel's capacity; 0 picks the default
	// min(N + Threads + 1, 1<<14). Historically the queue was always
	// allocated at N+Threads+1 — a per-Run O(N) allocation — because a
	// schedule was an unconditional blocking send: with any smaller
	// capacity, a worker whose update re-enqueued vertices into a full
	// queue blocked inside the update while every other worker could block
	// the same way, deadlocking the run. Sends now spill to an overflow
	// list instead of blocking (see Executor.send), so any capacity ≥ 1 is
	// safe and the default stays modest.
	QueueCap int
	// ResidualDelta maps a committed vertex transition to its residual
	// contribution (e.g. algorithms.PageRank.ResidualDelta); when set it
	// sharpens the telemetry Residual gauge of an observed run.
	ResidualDelta func(old, new uint64) float64
}

// Result summarizes a barrier-free run.
type Result struct {
	Updates   int64
	Converged bool
	Duration  time.Duration
}

// Executor owns the shared state of one barrier-free computation.
type Executor struct {
	g    *graph.Graph
	opts Options

	// Edges and Vertices mirror core.Engine's layout so algorithm Setup
	// state can be transplanted with LoadFrom.
	Edges    edgedata.Store
	Vertices []uint64

	pending *frontier.Bitset
	active  *frontier.Bitset
	queue   chan int
	// overflow holds scheduled vertices that found the channel full; the
	// pair (append + refill) under ovMu plus a refill after every receive
	// maintains the invariant "channel full OR overflow empty", so no task
	// can strand while workers sleep on an empty channel. ovCount mirrors
	// len(overflow) for a lock-free fast path.
	ovMu     sync.Mutex
	overflow []int
	ovCount  atomic.Int64
	inFlite  atomic.Int64
	updates  atomic.Int64
	stopped  atomic.Bool
	samples  atomic.Int64 // telemetry sample sequence
	seeds    []int

	// pool hosts the drain loops: repeated Runs reuse the same parked
	// workers instead of spawning Threads goroutines per call.
	pool *sched.Pool
	// views holds one preallocated VertexView adapter per worker.
	views []view

	// clock/residual are the staleness-and-convergence observation hooks
	// (nil when no Observer is attached); see nosync.go for the
	// field-by-field story.
	clock    *obs.DelayClock
	residual *obs.ResidualEstimator

	// panicked records the first recovered UpdateFunc panic; Run surfaces
	// it as an error instead of letting a worker kill the process.
	panicked atomic.Pointer[updatePanic]
}

// updatePanic captures a recovered UpdateFunc panic.
type updatePanic struct {
	vertex uint32
	value  any
	stack  []byte
}

// NewExecutor builds a barrier-free executor for g.
func NewExecutor(g *graph.Graph, opts Options) (*Executor, error) {
	if g == nil {
		return nil, fmt.Errorf("async: nil graph")
	}
	if opts.Threads < 1 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Threads > 1 && opts.Mode == edgedata.ModeSequential {
		return nil, fmt.Errorf("async: %d workers require a concurrent edge-data mode", opts.Threads)
	}
	if opts.MaxUpdates <= 0 {
		opts.MaxUpdates = 1 << 26
	}
	x := &Executor{
		g:        g,
		opts:     opts,
		Edges:    edgedata.New(opts.Mode, g.M()),
		Vertices: make([]uint64, g.N()),
		pending:  frontier.NewBitset(g.N()),
		active:   frontier.NewBitset(g.N()),
		pool:     sched.NewPoolNamed(opts.Threads, "async"),
		views:    make([]view, opts.Threads),
	}
	for i := range x.views {
		x.views[i].x = x
		x.views[i].worker = i
	}
	if opts.Inject != nil {
		x.Edges = opts.Inject.Wrap(x.Edges)
	}
	if opts.Observer != nil {
		x.residual = obs.NewResidualEstimator(opts.Threads, opts.ResidualDelta)
		// One epoch per executed update; one stamp slot per edge word.
		x.clock = obs.NewDelayClock(opts.Threads, int(g.M()))
		opts.Observer.SetDelaySource(obs.EngineAsync, x.clock.Hist)
	}
	return x, nil
}

// Graph returns the executor's graph.
func (x *Executor) Graph() *graph.Graph { return x.g }

// Close releases the executor's persistent worker pool. The executor stays
// usable — a later Run re-creates the pool — but Close makes the release
// deterministic instead of waiting for the pool's finalizer.
func (x *Executor) Close() {
	if x.pool != nil {
		x.pool.Close()
		x.pool = nil
	}
}

// Seed marks v as initially scheduled.
func (x *Executor) Seed(v uint32) { x.seeds = append(x.seeds, int(v)) }

// LoadFrom transplants initial state prepared by an algorithm's Setup on a
// barrier-based engine: vertex words, edge words, and the scheduled set
// become this executor's initial state. The engine must be freshly set up
// (not yet run) and share the same graph.
func (x *Executor) LoadFrom(e *core.Engine) error {
	if e.Graph() != x.g {
		return fmt.Errorf("async: LoadFrom engine holds a different graph")
	}
	copy(x.Vertices, e.Vertices)
	snap := e.Edges.Snapshot()
	for i, w := range snap {
		x.Edges.Store(uint32(i), w)
	}
	x.seeds = x.seeds[:0]
	for _, v := range e.Frontier().Members() {
		x.seeds = append(x.seeds, v)
	}
	return nil
}

// schedule enqueues v unless it is already pending or the run is stopping.
func (x *Executor) schedule(v int) {
	if x.stopped.Load() {
		return
	}
	if x.pending.SetAtomic(v) {
		x.inFlite.Add(1)
		x.send(v)
	}
}

// send delivers a scheduled vertex without ever blocking the caller. The
// fast path is a non-blocking channel send; when the channel is full the
// vertex joins the overflow list, and the same critical section refills
// the channel so the "channel full OR overflow empty" invariant is
// restored before the lock drops. Blocking here deadlocked the old
// executor under small queue capacities: the sender is a worker holding an
// active-vertex claim mid-update, so with all workers blocked in sends
// nobody was left to receive.
func (x *Executor) send(v int) {
	select {
	case x.queue <- v:
		return
	default:
	}
	x.ovMu.Lock()
	x.overflow = append(x.overflow, v)
	x.fillLocked()
	x.ovMu.Unlock()
}

// fill drains overflow into the channel; called by workers after each
// receive (every receive frees exactly the capacity one overflow task
// needs). The atomic count keeps the common empty-overflow case lock-free.
func (x *Executor) fill() {
	if x.ovCount.Load() == 0 {
		return
	}
	x.ovMu.Lock()
	x.fillLocked()
	x.ovMu.Unlock()
}

// fillLocked moves overflow tasks into the channel until one side is
// exhausted. Caller holds ovMu.
func (x *Executor) fillLocked() {
	for len(x.overflow) > 0 {
		select {
		case x.queue <- x.overflow[len(x.overflow)-1]:
			x.overflow = x.overflow[:len(x.overflow)-1]
		default:
			x.ovCount.Store(int64(len(x.overflow)))
			return
		}
	}
	x.ovCount.Store(0)
}

// Run drains the computation to quiescence and returns statistics. The
// update function receives views satisfying core.VertexView, so the same
// algorithm implementations run under both execution models.
func (x *Executor) Run(update core.UpdateFunc) (Result, error) {
	if update == nil {
		return Result{}, fmt.Errorf("async: nil update function")
	}
	start := time.Now()
	res := Result{Converged: true}
	if len(x.seeds) == 0 {
		return res, nil
	}
	x.panicked.Store(nil)
	if inj := x.opts.Inject; inj != nil {
		// Heal rule: a faulted edge re-enqueues both endpoints, the
		// barrier-free analog of the task-generation retry (see fault).
		inj.Arm(func(e uint32) {
			src, dst := x.g.EdgeEndpoints(e)
			x.schedule(int(src))
			x.schedule(int(dst))
		})
		defer inj.Disarm()
	}
	if x.pool == nil { // re-create after Close
		x.pool = sched.NewPoolNamed(x.opts.Threads, "async")
	}
	// Queue capacity: a vertex can be pending at most once, so N+Threads+1
	// can never overflow — but allocating that per Run is O(N). The
	// default caps the channel at 16Ki slots and lets the overflow list
	// absorb the (rare) excess on larger graphs.
	cap := x.opts.QueueCap
	if cap <= 0 {
		if cap = x.g.N() + x.opts.Threads + 1; cap > 1<<14 {
			cap = 1 << 14
		}
	}
	x.queue = make(chan int, cap)
	x.overflow = x.overflow[:0]
	x.ovCount.Store(0)
	for i := range x.views {
		x.views[i].plain = x.clock == nil && x.opts.Inject == nil
	}
	x.stopped.Store(false)
	x.inFlite.Store(0)
	x.updates.Store(0)
	x.clock.Reset()
	x.residual.Reset()
	x.opts.Observer.SetPhase("async: running")
	for _, v := range x.seeds {
		x.schedule(v)
	}
	if x.inFlite.Load() == 0 {
		return res, nil
	}

	x.pool.RunEach(func(w int) {
		vw := &x.views[w]
		for v := range x.queue {
			// The receive freed a slot; restore "channel full OR overflow
			// empty" before doing anything that could block on this task.
			x.fill()
			x.pending.ClearAtomic(v)
			if ctx := x.opts.Context; ctx != nil && ctx.Err() != nil {
				// Cancellation: stop running updates and scheduling new
				// work; the queue drains through the in-flight counter.
				x.stopped.Store(true)
			}
			if !x.active.SetAtomic(v) {
				// f(v) is running on another worker right now. Repost
				// the wakeup (transferring our in-flight unit) unless
				// someone already re-pended it, in which case this
				// unit is redundant and simply retires.
				if x.pending.SetAtomic(v) {
					x.send(v)
					runtime.Gosched()
					continue
				}
				if x.inFlite.Add(-1) == 0 {
					close(x.queue)
				}
				continue
			}
			switch {
			case x.stopped.Load():
				// Draining a stopped run: retire the task unrun.
			case x.updates.Add(1) > x.opts.MaxUpdates:
				x.stopped.Store(true)
			default:
				x.clock.Advance()
				x.runOne(vw, update, uint32(v))
				if o := x.opts.Observer; o != nil {
					if vw.nUpdates++; vw.nUpdates >= sampleWindow {
						x.emitSample(o, vw, 0)
					}
				}
			}
			x.active.ClearAtomic(v)
			if x.inFlite.Add(-1) == 0 {
				close(x.queue)
			}
		}
	})
	res.Updates = x.updates.Load()
	if x.stopped.Load() {
		res.Converged = false
		if res.Updates > x.opts.MaxUpdates {
			res.Updates = x.opts.MaxUpdates
		}
	}
	res.Duration = time.Since(start)
	if o := x.opts.Observer; o != nil {
		// Final aggregate: fold every worker's leftover window into one
		// quiescence event. The workers are parked, so their view counters
		// are safe to read and reset here.
		agg := &x.views[0]
		for i := 1; i < len(x.views); i++ {
			vw := &x.views[i]
			agg.nUpdates += vw.nUpdates
			agg.nReads += vw.nReads
			agg.nWrites += vw.nWrites
			vw.nUpdates, vw.nReads, vw.nWrites = 0, 0, 0
		}
		x.emitSample(o, agg, res.Duration.Nanoseconds())
		if res.Converged {
			o.SetPhase("async: quiescent")
		} else {
			o.SetPhase("async: stopped")
		}
	}
	if p := x.panicked.Load(); p != nil {
		return res, fmt.Errorf("async: update function panicked on vertex %d: %v\n%s", p.vertex, p.value, p.stack)
	}
	if ctx := x.opts.Context; ctx != nil && ctx.Err() != nil && !res.Converged {
		return res, ctx.Err()
	}
	return res, nil
}

// runOne executes one update, converting a panic into a recorded failure
// that stops the run instead of crashing the process.
func (x *Executor) runOne(view *view, update core.UpdateFunc, v uint32) {
	defer func() {
		if r := recover(); r != nil {
			x.panicked.CompareAndSwap(nil, &updatePanic{vertex: v, value: r, stack: debug.Stack()})
			x.stopped.Store(true)
		}
	}()
	view.bind(v)
	update(view)
	if t := x.opts.Trace; t != nil {
		t.Record(0, view.worker, v, view.uWrites, x.Vertices[v])
	}
}

// emitSample emits one telemetry sample from worker-view vw's accumulated
// window and resets it. The pending-task count doubles as the scheduled-set
// gauge and the convergence residual — it trends to zero at quiescence.
// Only vw's owning worker (or the post-drain flush) may call this.
func (x *Executor) emitSample(o *obs.Observer, vw *view, durationNs int64) {
	inflight := x.inFlite.Load()
	resid := float64(inflight) / float64(x.g.N())
	if r := x.residual; r != nil && x.opts.ResidualDelta != nil {
		t := r.Totals()
		if dUp := t.Updates - vw.emittedResidUpdates; dUp > 0 {
			resid = (t.Sum - vw.emittedResidSum) / float64(dUp)
			vw.emittedResidSum, vw.emittedResidUpdates = t.Sum, t.Updates
		}
	}
	var p50, p99, dmax int64
	if cl := x.clock; cl != nil {
		h := cl.Hist()
		p50, p99, dmax = h.Quantile(0.50), h.Quantile(0.99), h.Max()
	}
	o.Emit(obs.Event{
		Engine:        obs.EngineAsync,
		Iter:          x.samples.Add(1) - 1,
		Scheduled:     inflight,
		Updates:       vw.nUpdates,
		EdgeReads:     vw.nReads,
		EdgeWrites:    vw.nWrites,
		RWConflicts:   -1,
		WWConflicts:   -1,
		Residual:      resid,
		DurationNanos: durationNs,
		DelayP50:      p50,
		DelayP99:      p99,
		DelayMax:      dmax,
	})
	vw.nUpdates, vw.nReads, vw.nWrites = 0, 0, 0
}

// view adapts the executor to core.VertexView. Unlike the barrier-based
// Ctx there is no "next iteration": writes schedule the opposite endpoint
// onto the live queue immediately.
type view struct {
	x      *Executor
	worker int
	v      uint32
	inSrc  []uint32
	inIdx  []uint32
	outDst []uint32
	outLo  uint32

	// nUpdates/nReads/nWrites accumulate this worker's telemetry window;
	// worker-private, drained by emitSample.
	nUpdates, nReads, nWrites int64
	// emittedResid* snapshot the global residual totals at this worker's
	// last telemetry emit.
	emittedResidSum     float64
	emittedResidUpdates int64
	// uWrites counts edge writes of the currently bound update, for the
	// execution-path trace.
	uWrites int

	// plain is set for a Run with no delay clock and no fault injector
	// around the store: the bulk accessors then make one store call per
	// update instead of taking the per-edge path.
	plain   bool
	scratch core.EdgeScratch
}

func (c *view) bind(v uint32) {
	g := c.x.g
	c.v = v
	c.inSrc = g.InNeighbors(v)
	c.inIdx = g.InEdgeIndices(v)
	c.outDst = g.OutNeighbors(v)
	c.outLo, _ = g.OutEdgeIndex(v)
	c.uWrites = 0
}

func (c *view) V() uint32      { return c.v }
func (c *view) Vertex() uint64 { return c.x.Vertices[c.v] }
func (c *view) SetVertex(w uint64) {
	if r := c.x.residual; r != nil {
		r.Observe(c.worker, c.x.Vertices[c.v], w)
	}
	c.x.Vertices[c.v] = w
}
func (c *view) InDegree() int           { return len(c.inSrc) }
func (c *view) OutDegree() int          { return len(c.outDst) }
func (c *view) InNeighbor(k int) uint32 { return c.inSrc[k] }
func (c *view) OutNeighbor(k int) uint32 {
	return c.outDst[k]
}
func (c *view) InEdgeID(k int) uint32  { return c.inIdx[k] }
func (c *view) OutEdgeID(k int) uint32 { return c.outLo + uint32(k) }
func (c *view) InEdgeVal(k int) uint64 {
	c.nReads++
	e := c.inIdx[k]
	if cl := c.x.clock; cl != nil {
		cl.ObserveRead(c.worker, e)
	}
	return c.x.Edges.Load(e)
}
func (c *view) OutEdgeVal(k int) uint64 {
	c.nReads++
	e := c.outLo + uint32(k)
	if cl := c.x.clock; cl != nil {
		cl.ObserveRead(c.worker, e)
	}
	return c.x.Edges.Load(e)
}
func (c *view) ScheduleSelf() { c.x.schedule(int(c.v)) }
func (c *view) Yield()        {}

func (c *view) SetInEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	e := c.inIdx[k]
	c.x.Edges.Store(e, w)
	if cl := c.x.clock; cl != nil {
		cl.Stamp(e)
	}
	c.x.schedule(int(c.inSrc[k]))
}

func (c *view) SetOutEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	e := c.outLo + uint32(k)
	c.x.Edges.Store(e, w)
	if cl := c.x.clock; cl != nil {
		cl.Stamp(e)
	}
	c.x.schedule(int(c.outDst[k]))
}

func (c *view) InEdgeVals() []uint64 {
	if !c.plain {
		return c.scratch.GatherIn(c)
	}
	c.nReads += int64(len(c.inIdx))
	return c.scratch.LoadIn(c.x.Edges, c.inIdx)
}

func (c *view) OutEdgeVals() []uint64 {
	if !c.plain {
		return c.scratch.GatherOut(c)
	}
	c.nReads += int64(len(c.outDst))
	return c.scratch.LoadOut(c.x.Edges, c.outLo, len(c.outDst))
}

func (c *view) SetOutEdgeVals(w uint64) {
	if !c.plain {
		core.ScatterOut(c, w)
		return
	}
	n := len(c.outDst)
	c.nWrites += int64(n)
	c.uWrites += n
	c.x.Edges.FillRange(c.outLo, c.outLo+uint32(n), w)
	for _, d := range c.outDst {
		c.x.schedule(int(d))
	}
}

var _ core.VertexView = (*view)(nil)
