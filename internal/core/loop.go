package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// Loop is the run lifecycle of every barrier engine — the one loop of the
// paper's system model (Section II, Algorithm 1): take the scheduled set,
// dispatch it, barrier, advance. It owns what does not depend on how an
// iteration is executed: the worker pool, cancellation, the iteration cap,
// the divergence watchdog, the injected-crash check, turning a panic in
// user code into an error naming the vertex, the observer's phase and
// per-iteration event, and the partial-result contract (Converged false
// and Duration set on every early return). An engine holds one, fills the
// exported fields, and supplies its Step.
type Loop struct {
	// Name prefixes errors and phases ("core", "hybrid", "shard") and
	// labels the pool's goroutines; Kind tags the emitted events.
	Name string
	Kind obs.EngineKind
	// Threads is the pool's worker count; N the vertex count.
	Threads, N int
	// Front is the scheduled set: the loop runs until it is empty.
	Front *frontier.Frontier
	// MaxIters caps Iterations; hitting it ends the run unconverged with a
	// nil error. StartIter is the iteration a resumed run starts counting
	// from.
	MaxIters, StartIter int
	// StallWindow > 0 aborts with ErrStalled once the scheduled count has
	// reached no new minimum for that many consecutive iterations.
	StallWindow int
	// Context, when non-nil, is checked at every barrier.
	Context context.Context
	// Inject, when non-nil, is asked for a planned crash at every barrier.
	Inject *fault.Injector
	// Observer, when non-nil, gets the phase and one event per iteration.
	Observer *obs.Observer

	pool     *sched.Pool
	panicked atomic.Pointer[updatePanic]
}

// updatePanic captures a recovered panic of user code.
type updatePanic struct {
	vertex uint32
	value  any
	stack  []byte
}

// Step executes iteration iter over the scheduled set (ascending) and
// returns up to the barrier. When an Observer is attached it also returns
// the engine's half of the iteration's event: the loop fills Engine, Iter,
// Scheduled, Residual and the pool's barrier timing and emits it. An error
// ends the run.
type Step func(iter int, members []int) (obs.Event, error)

// LoopResult is the part of a run's result the lifecycle decides.
type LoopResult struct {
	Iterations int
	Converged  bool
	Duration   time.Duration
}

// Pool returns the persistent workers every dispatch of this loop's engine
// reuses, creating them on first use and after Close.
func (l *Loop) Pool() *sched.Pool {
	if l.pool == nil {
		l.pool = sched.NewPoolNamed(l.Threads, l.Name)
	}
	return l.pool
}

// Close releases the pool. The loop stays usable — the next Run re-creates
// it — but Close makes the release deterministic instead of waiting for the
// pool's finalizer.
func (l *Loop) Close() {
	if l.pool != nil {
		l.pool.Close()
		l.pool = nil
	}
}

// RecordPanic keeps r, recovered from user code running on behalf of vertex
// v, if it is the first panic of the run; Run returns it as an error at the
// barrier instead of letting it kill the process.
func (l *Loop) RecordPanic(v uint32, r any) {
	l.panicked.CompareAndSwap(nil, &updatePanic{vertex: v, value: r, stack: debug.Stack()})
}

// Panicked reports whether user code has panicked in this run; workers
// test it to drain the rest of the iteration fast.
func (l *Loop) Panicked() bool { return l.panicked.Load() != nil }

// PanicErr returns the recorded panic as an error, or nil. Run checks it
// after every Step; a Step with more than one dispatch (shard's intervals)
// checks it between them.
func (l *Loop) PanicErr() error {
	p := l.panicked.Load()
	if p == nil {
		return nil
	}
	return fmt.Errorf("%s: update function panicked on vertex %d: %v\n%s", l.Name, p.vertex, p.value, p.stack)
}

// Run iterates step until the scheduled set is empty (Converged), the
// iteration cap is hit, or something fails. The result is meaningful on
// every return.
func (l *Loop) Run(step Step) (LoopResult, error) {
	l.Pool().SetTimed(l.Observer.Enabled())
	l.panicked.Store(nil)
	if o := l.Observer; o != nil {
		o.SetPhase(l.Name + ": running")
	}
	res := LoopResult{Iterations: l.StartIter}
	start := time.Now()
	err := l.iterate(&res, step)
	res.Duration = time.Since(start)
	if o := l.Observer; o != nil {
		if res.Converged {
			o.SetPhase(l.Name + ": converged")
		} else {
			o.SetPhase(l.Name + ": stopped")
		}
	}
	return res, err
}

func (l *Loop) iterate(res *LoopResult, step Step) error {
	bestActive, stalled := l.N+1, 0
	for l.Front.Size() > 0 {
		if ctx := l.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if res.Iterations >= l.MaxIters {
			return nil
		}
		if inj := l.Inject; inj != nil && inj.CrashNow(res.Iterations) {
			return fmt.Errorf("%s: iteration %d: %w", l.Name, res.Iterations, fault.ErrCrash)
		}
		if k := l.StallWindow; k > 0 {
			if size := l.Front.Size(); size < bestActive {
				bestActive, stalled = size, 0
			} else if stalled++; stalled >= k {
				return fmt.Errorf("%s: iteration %d: active vertices %d (best %d) unimproved for %d iterations: %w",
					l.Name, res.Iterations, size, bestActive, k, ErrStalled)
			}
		}
		members := l.Front.Members()
		ev, err := step(res.Iterations, members)
		if err == nil {
			err = l.PanicErr()
		}
		if err != nil {
			return err
		}
		if o := l.Observer; o != nil {
			wall, wait := l.pool.TakeBarrierStats()
			ev.Engine = l.Kind
			ev.Iter = int64(res.Iterations)
			ev.Scheduled = int64(len(members))
			ev.Residual = float64(len(members)) / float64(l.N)
			ev.BarrierWaitNanos = int64(wait)
			ev.DurationNanos = int64(wall)
			o.Emit(ev)
		}
		res.Iterations++
		l.Front.Advance()
	}
	res.Converged = true
	return nil
}
