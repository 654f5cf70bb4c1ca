package core

import (
	"fmt"
	"time"

	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// Loop is the barrier tier's run: the one loop of the paper's system model
// (Section II, Algorithm 1) — take the scheduled set, dispatch it, barrier,
// advance — around the Lifecycle every tier shares. On top of that it owns
// the worker pool, the iteration cap, the divergence watchdog, the
// injected-crash check and the observer's per-iteration event. An engine holds one, fills the exported
// fields, and supplies its Step.
type Loop struct {
	// Lifecycle carries Name (error and phase prefix, also the label of
	// the pool's goroutines), Context and Observer.
	Lifecycle
	// Kind tags the emitted events.
	Kind obs.EngineKind
	// Threads is the pool's worker count; N the vertex count.
	Threads, N int
	// Front is the scheduled set: the loop runs until it is empty.
	Front *frontier.Frontier
	// MaxIters caps Iterations; hitting it ends the run unconverged with a
	// nil error. StartIter is the iteration a resumed run starts counting
	// from.
	MaxIters, StartIter int
	// StallWindow > 0 ends the run with ErrStalled once the scheduled set
	// has reached no new minimum for that many consecutive iterations.
	StallWindow int
	// Inject, when non-nil, is asked for a planned crash at every barrier.
	Inject *fault.Injector

	pool *sched.Pool
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

// Run iterates step until the scheduled set is empty (Converged), the
// iteration cap is hit, or something fails. The result is meaningful on
// every return.
func (l *Loop) Run(step Step) (LoopResult, error) {
	l.Pool().SetTimed(l.Observer.Enabled())
	l.Begin()
	res := LoopResult{Iterations: l.StartIter}
	err := l.iterate(&res, step)
	res.Duration = l.End(res.Converged)
	return res, err
}

func (l *Loop) iterate(res *LoopResult, step Step) error {
	bestActive, stalled := l.N+1, 0
	for l.Front.Size() > 0 {
		if err := l.Err(); err != nil {
			return err
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
			err = l.Cause()
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
