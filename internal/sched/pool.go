package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a persistent worker pool for iteration dispatch. A one-shot
// dispatcher (ParallelBlocks) spawns P goroutines per call, which under the
// barrier-per-iteration engine means a spawn/join cycle per iteration —
// and per *round* under DIG. A Pool keeps P
// long-lived workers parked on per-worker wake channels and re-dispatches
// them for every call, so the steady-state per-iteration cost is two
// channel operations per worker and zero heap allocations.
//
// A Pool is NOT safe for concurrent dispatch: exactly one goroutine may
// call RunBlocks/RunChunks/RunEach at a time (the engine's barrier loop
// satisfies this by construction). Close releases the workers; a Pool that
// is never closed is released by a finalizer when it becomes unreachable,
// so abandoned engines do not leak goroutines permanently.
type Pool struct{ *pool }

// taskKind selects what parked workers execute on the next wake.
type taskKind int

const (
	taskNone taskKind = iota
	// taskBlocks is the Fig. 1 static dispatch: worker w runs
	// Block(items, w, eff) in slice order.
	taskBlocks
	// taskChunks is the dynamic dispatch: workers claim chunks from the
	// shared cursor until the items are exhausted.
	taskChunks
	// taskEach runs eachFn once per worker — the generic entry point for
	// executors that host their own work loops on pooled workers.
	taskEach
)

// pool is the worker-visible state. Workers reference only this inner
// struct, so the outer Pool handle stays collectable while they park —
// which is what lets the finalizer release an abandoned pool.
type pool struct {
	workers int
	name    string          // pprof "engine" label for the workers ("" = unlabeled)
	wake    []chan struct{} // per-worker wake tokens (nil when workers == 1)
	quit    chan struct{}
	done    sync.WaitGroup

	// Barrier timing, enabled by SetTimed for observability. busyNs[w] is
	// written only by worker w during a dispatch and read by the
	// dispatching goroutine after the barrier; the WaitGroup orders the
	// accesses. accWallNs/accWaitNs accumulate across dispatches (several
	// per iteration under DIG) until TakeBarrierStats drains
	// them — only the dispatching goroutine touches those.
	timed     atomic.Bool
	busyNs    []int64
	accWallNs int64
	accWaitNs int64

	// Dispatch parameters. Written by the dispatching goroutine before the
	// wake sends and read by workers after the receives; the channel
	// operations order the accesses, so no further synchronization is
	// needed.
	task   taskKind
	items  []int
	itemFn func(worker, item int)
	eachFn func(worker int)
	eff    int // effective worker count for taskBlocks (≤ workers)
	chunk  int
	cursor atomic.Int64

	// panicked records the first recovered task panic of a dispatch; the
	// barrier re-raises it on the dispatching goroutine so a panicking
	// update cannot wedge or kill a parked worker.
	panicked atomic.Pointer[taskPanic]
	closed   atomic.Bool
}

// taskPanic captures a recovered worker panic for re-raising at the barrier.
type taskPanic struct {
	value any
	stack []byte
}

// NewPool starts a pool of the given number of workers. workers < 1 is
// treated as 1; a one-worker pool spawns no goroutines and runs every
// dispatch inline on the caller.
func NewPool(workers int) *Pool { return NewPoolNamed(workers, "") }

// NewPoolNamed starts a pool whose workers carry the pprof goroutine label
// engine=name, so CPU and block profiles attribute worker time to the
// owning engine (core, hybrid, nosync). An empty name labels
// nothing and is identical to NewPool.
func NewPoolNamed(workers int, name string) *Pool {
	if workers < 1 {
		workers = 1
	}
	in := &pool{workers: workers, name: name, quit: make(chan struct{}), busyNs: make([]int64, workers)}
	if workers > 1 {
		in.wake = make([]chan struct{}, workers)
		for w := range in.wake {
			in.wake[w] = make(chan struct{}, 1)
			go in.labeledLoop(w)
		}
	}
	out := &Pool{in}
	runtime.SetFinalizer(out, func(p *Pool) { p.pool.close() })
	return out
}

// labeledLoop applies the pool's pprof label set to the worker goroutine
// and enters the park/wake cycle.
func (in *pool) labeledLoop(w int) {
	if in.name != "" {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("engine", in.name, "role", "pool-worker")))
	}
	in.loop(w)
}

// SetTimed enables (or disables) barrier timing: while on, every dispatch
// records its wall time and each participating worker's busy time, and the
// summed per-worker barrier wait (wall − busy, the load imbalance) is
// accumulated for TakeBarrierStats. Off by default; the observability
// layer turns it on. Must not be toggled concurrently with a dispatch.
func (p *Pool) SetTimed(on bool) { p.pool.timed.Store(on) }

// TakeBarrierStats returns the wall time and summed per-worker barrier
// wait accumulated by timed dispatches since the previous call, and resets
// the accumulators. Single-worker (inline) dispatches contribute wall time
// but no wait — there is no barrier to wait at. Must be called from the
// dispatching goroutine (the engine's barrier loop).
func (p *Pool) TakeBarrierStats() (wall, wait time.Duration) {
	in := p.pool
	wall, wait = time.Duration(in.accWallNs), time.Duration(in.accWaitNs)
	in.accWallNs, in.accWaitNs = 0, 0
	return wall, wait
}

// Workers returns the pool's worker count P.
func (p *Pool) Workers() int { return p.pool.workers }

// Close releases the parked workers. Close is idempotent and must not be
// called concurrently with a dispatch; a closed pool must not be
// dispatched again.
func (p *Pool) Close() {
	p.pool.close()
	runtime.SetFinalizer(p, nil)
}

func (in *pool) close() {
	if in.closed.CompareAndSwap(false, true) {
		close(in.quit)
	}
}

// RunBlocks dispatches items over the pooled workers with the paper's
// Fig. 1 contiguous-block assignment and blocks until all workers finish
// (the iteration barrier). Worker and block assignment are identical to
// ParallelBlocks, so per-worker execution order — and with it the trace
// path of any deterministic schedule — is preserved exactly; only the
// goroutine spawn/join per call is gone.
func (p *Pool) RunBlocks(items []int, fn func(worker, item int)) {
	in := p.pool
	if len(in.wake) == 0 || len(items) <= 1 {
		in.runInline(items, fn)
		return
	}
	eff := in.workers
	if eff > len(items) {
		eff = len(items)
	}
	in.task, in.items, in.itemFn, in.eff = taskBlocks, items, fn, eff
	in.dispatch()
	in.items, in.itemFn = nil, nil
}

// RunChunks dispatches items over the pooled workers dynamically: workers
// claim consecutive chunks of the given size from an atomic cursor until
// the items are exhausted, then the call returns (the iteration barrier).
// Items within a chunk run in slice order, so ascending inputs still run
// small-label-first *within a chunk*; across chunks the assignment is
// timing-dependent. chunk <= 0 selects DefaultChunk.
func (p *Pool) RunChunks(items []int, chunk int, fn func(worker, item int)) {
	in := p.pool
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if len(in.wake) == 0 || len(items) <= chunk {
		in.runInline(items, fn)
		return
	}
	in.task, in.items, in.itemFn, in.chunk = taskChunks, items, fn, chunk
	in.cursor.Store(0)
	in.dispatch()
	in.items, in.itemFn = nil, nil
}

// RunEach invokes fn once per worker (worker ids 0..P-1) concurrently and
// blocks until every invocation returns. The NoSync scheduler uses it
// to host its drain loops on pooled workers instead of spawning fresh
// goroutines per run.
func (p *Pool) RunEach(fn func(worker int)) {
	in := p.pool
	if len(in.wake) == 0 {
		fn(0)
		return
	}
	in.task, in.eachFn = taskEach, fn
	in.dispatch()
	in.eachFn = nil
}

// runInline executes a dispatch on the calling goroutine (single-worker
// pools and degenerate item counts), contributing wall time — but no
// barrier wait — to the timing accumulators when timing is on.
func (in *pool) runInline(items []int, fn func(worker, item int)) {
	timed := in.timed.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	for _, it := range items {
		fn(0, it)
	}
	if timed {
		in.accWallNs += time.Since(t0).Nanoseconds()
	}
}

// dispatch wakes every worker, waits for the barrier, and re-raises the
// first recovered worker panic on the caller.
func (in *pool) dispatch() {
	if in.closed.Load() {
		panic("sched: dispatch on closed Pool")
	}
	timed := in.timed.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
		for w := range in.busyNs {
			in.busyNs[w] = 0
		}
	}
	in.done.Add(len(in.wake))
	for _, c := range in.wake {
		c <- struct{}{}
	}
	in.done.Wait()
	if timed {
		wallNs := time.Since(t0).Nanoseconds()
		in.accWallNs += wallNs
		// Barrier wait is wall − busy per participating worker: the time a
		// finished worker idled at the barrier while stragglers ran — the
		// observable cost of the paper's Fig. 1 static-block skew.
		participants := len(in.wake)
		if in.task == taskBlocks && in.eff < participants {
			participants = in.eff
		}
		for w := 0; w < participants; w++ {
			if d := wallNs - in.busyNs[w]; d > 0 {
				in.accWaitNs += d
			}
		}
	}
	in.task = taskNone
	if p := in.panicked.Swap(nil); p != nil {
		panic(fmt.Sprintf("sched: pool task panicked: %v\n%s", p.value, p.stack))
	}
}

// loop is worker w's park/wake cycle.
func (in *pool) loop(w int) {
	for {
		select {
		case <-in.wake[w]:
		case <-in.quit:
			return
		}
		in.run(w)
		in.done.Done()
	}
}

// run executes worker w's share of the current task, converting a panic
// into a recorded failure so the worker survives to park again.
func (in *pool) run(w int) {
	defer func() {
		if r := recover(); r != nil {
			in.panicked.CompareAndSwap(nil, &taskPanic{value: r, stack: debug.Stack()})
		}
	}()
	timed := in.timed.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	switch in.task {
	case taskBlocks:
		if w < in.eff {
			for _, it := range Block(in.items, w, in.eff) {
				in.itemFn(w, it)
			}
		}
	case taskChunks:
		n := len(in.items)
		for {
			lo := int(in.cursor.Add(int64(in.chunk))) - in.chunk
			if lo >= n {
				break
			}
			hi := lo + in.chunk
			if hi > n {
				hi = n
			}
			for _, it := range in.items[lo:hi] {
				in.itemFn(w, it)
			}
		}
	case taskEach:
		in.eachFn(w)
	}
	if timed {
		in.busyNs[w] = time.Since(t0).Nanoseconds()
	}
}
