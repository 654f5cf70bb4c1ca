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
	"sync"
	"sync/atomic"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
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
	// Converged == false and a nil error.
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
	exec
	opts Options

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

	// views holds one preallocated VertexView adapter per worker.
	views []view
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
	x := &Executor{
		opts:    opts,
		pending: frontier.NewBitset(g.N()),
		active:  frontier.NewBitset(g.N()),
		views:   make([]view, opts.Threads),
	}
	x.init(g, opts.Mode, opts.Threads, obs.EngineAsync, opts.Observer, opts.ResidualDelta, opts.Trace)
	for i := range x.views {
		x.views[i] = view{viewBase: viewBase{s: &x.exec, worker: i, plain: x.clock == nil && opts.Inject == nil}, x: x}
	}
	if opts.Inject != nil {
		x.Edges = opts.Inject.Wrap(x.Edges)
	}
	return x, nil
}

// schedule enqueues v unless it is already pending or the run is stopping.
func (x *Executor) schedule(v int) {
	if x.life.Stopped() {
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
	if len(x.seeds) == 0 {
		return Result{Converged: true}, nil
	}
	x.begin(x.opts.Context, x.opts.MaxUpdates)
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
	x.inFlite.Store(0)
	for _, v := range x.seeds {
		x.schedule(v)
	}

	x.pool.RunEach(func(w int) {
		vw := &x.views[w]
		for v := range x.queue {
			// The receive freed a slot; restore "channel full OR overflow
			// empty" before doing anything that could block on this task.
			x.fill()
			x.pending.ClearAtomic(v)
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
			case x.life.Stopped(), !x.admit():
				// Draining a stopped run (cap, cancellation, panic):
				// retire the task unrun; the queue drains through the
				// in-flight counter.
			default:
				x.clock.Advance()
				x.runOne(&vw.viewBase, vw, update, uint32(v))
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
	var res Result
	var err error
	res.Updates, res.Converged, res.Duration, err = x.end()
	if o := x.opts.Observer; o != nil {
		// Final aggregate: fold every worker's leftover window into one
		// quiescence event. The workers are parked, so their view counters
		// are safe to read and reset here.
		agg := &x.views[0]
		for i := 1; i < len(x.views); i++ {
			agg.absorb(&x.views[i].viewBase)
		}
		x.emitSample(o, agg, res.Duration.Nanoseconds())
	}
	return res, err
}

// emitSample emits one telemetry sample from worker-view vw's accumulated
// window; the in-flight task count is the executor's pending gauge.
func (x *Executor) emitSample(o *obs.Observer, vw *view, durationNs int64) {
	o.Emit(x.sample(&vw.viewBase, x.inFlite.Load(), durationNs))
}

// view adapts the executor to core.VertexView. Unlike the barrier-based
// Ctx there is no "next iteration": writes schedule the opposite endpoint
// onto the live queue immediately.
type view struct {
	viewBase
	x *Executor
}

func (c *view) SetInEdgeVal(k int, w uint64) {
	c.store(c.InEdgeID(k), w)
	c.x.schedule(int(c.InNeighbor(k)))
}

func (c *view) SetOutEdgeVal(k int, w uint64) {
	c.store(c.OutEdgeID(k), w)
	c.x.schedule(int(c.OutNeighbor(k)))
}

func (c *view) SetOutEdgeVals(w uint64) {
	if !c.plain {
		core.ScatterOut(c, w)
		return
	}
	for k, n := 0, c.fillOut(w); k < n; k++ {
		c.x.schedule(int(c.OutNeighbor(k)))
	}
}

func (c *view) InEdgeVals() []uint64  { return c.inVals(c) }
func (c *view) OutEdgeVals() []uint64 { return c.outVals(c) }
func (c *view) ScheduleSelf()         { c.x.schedule(int(c.V())) }

var _ core.VertexView = (*view)(nil)
