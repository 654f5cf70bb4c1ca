package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ndgraph/internal/obs"
)

// Lifecycle is how every tier starts and ends a run — the barrier engines
// (through Loop), the barrier-free executors and the remote coordinator. It
// owns what does not depend on how work is dispatched: cancellation,
// turning a panic in user code into an error naming the vertex, the
// observer's phase, and the clock behind the partial-result contract: every
// run that started returns Converged (true only at the fixed point) and the
// Duration of the work done, next to the error that ended it.
type Lifecycle struct {
	// Name prefixes errors and phases ("core", "nosync", "netdist").
	Name string
	// Context, when non-nil, cancels the run; the tier polls Err.
	Context context.Context
	// Observer, when non-nil, gets the phase.
	Observer *obs.Observer

	start time.Time
	cause atomic.Pointer[stopCause]
}

type stopCause struct{ err error }

// Begin starts a run: clears the previous run's stop cause, reports the
// running phase and starts the clock.
func (l *Lifecycle) Begin() {
	l.cause.Store(nil)
	l.Observer.SetPhase(l.Name + ": running")
	l.start = time.Now()
}

// End finishes a run: reports the converged or stopped phase and returns
// the run's Duration.
func (l *Lifecycle) End(converged bool) time.Duration {
	d := time.Since(l.start)
	if converged {
		l.Observer.SetPhase(l.Name + ": converged")
	} else {
		l.Observer.SetPhase(l.Name + ": stopped")
	}
	return d
}

// Err returns the context's error once it is cancelled, else nil.
func (l *Lifecycle) Err() error {
	if l.Context == nil {
		return nil
	}
	return l.Context.Err()
}

// Stop records err as the reason the run ends, unless an earlier Stop of
// this run recorded one: the first cause wins. A nil err ends the run
// without an error, as a barrier-free update cap does.
func (l *Lifecycle) Stop(err error) {
	l.cause.CompareAndSwap(nil, &stopCause{err})
}

// Stopped reports whether Stop has been called in this run; workers test it
// to drain the rest of their work fast.
func (l *Lifecycle) Stopped() bool { return l.cause.Load() != nil }

// Cause returns the error the first Stop of this run recorded, or nil.
func (l *Lifecycle) Cause() error {
	if c := l.cause.Load(); c != nil {
		return c.err
	}
	return nil
}

// PanicError is the error a panic r in user code running on behalf of
// vertex v ends the run with; stack is where it was recovered.
func (l *Lifecycle) PanicError(v uint32, r any, stack []byte) error {
	return fmt.Errorf("%s: update function panicked on vertex %d: %v\n%s", l.Name, v, r, stack)
}

// RecordPanic stops the run with r, recovered from user code running on
// behalf of vertex v, instead of letting it kill the process.
func (l *Lifecycle) RecordPanic(v uint32, r any) {
	l.Stop(l.PanicError(v, r, debug.Stack()))
}
