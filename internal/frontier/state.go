package frontier

import "sync/atomic"

// Vertex scheduling states for the barrier-free NoSync scheduler. A States
// table replaces a pending+active bitset pair with one
// four-state machine per vertex, giving both guarantees in a single word:
// duplicate wakeups coalesce (a vertex occupies at most one queue slot),
// and an update never overlaps itself (the system model's per-vertex
// exclusion).
//
//	Idle ──Post──▶ Scheduled ──Begin──▶ Running ──Finish──▶ Idle
//	                   ▲                   │
//	                   │                  Post
//	                 Finish                ▼
//	                   └──────────── RunningDirty
//
// Invariants: a vertex is in some queue exactly while Scheduled; only the
// dequeuing worker moves Scheduled→Running; a Post that lands mid-run
// (Running→RunningDirty) is re-queued by the runner's own Finish, so the
// wakeup is never lost and never duplicated.
const (
	// StateIdle: not queued, not running.
	StateIdle uint32 = iota
	// StateScheduled: queued exactly once, waiting to run.
	StateScheduled
	// StateRunning: an update is executing; no queue slot held.
	StateRunning
	// StateRunningDirty: executing, and a wakeup arrived mid-run; the
	// runner re-queues the vertex when it finishes.
	StateRunningDirty
)

// States is a table of per-vertex scheduling states, safe for concurrent
// use by any number of posters and one runner per vertex.
type States struct {
	s []atomic.Uint32
}

// NewStates returns a table of n vertices, all Idle.
func NewStates(n int) *States {
	if n < 0 {
		panic("frontier: negative states size")
	}
	return &States{s: make([]atomic.Uint32, n)}
}

// Len returns the table capacity.
func (st *States) Len() int { return len(st.s) }

// Post requests an execution of v. It returns true iff the caller won the
// Idle→Scheduled transition and must enqueue v (exactly one queue slot per
// Scheduled episode). All other states coalesce the wakeup: Scheduled and
// RunningDirty are already owed a run; Running is marked dirty so the
// runner re-queues at Finish.
func (st *States) Post(v int) bool {
	s := &st.s[v]
	for {
		switch s.Load() {
		case StateIdle:
			if s.CompareAndSwap(StateIdle, StateScheduled) {
				return true
			}
		case StateScheduled, StateRunningDirty:
			return false
		case StateRunning:
			if s.CompareAndSwap(StateRunning, StateRunningDirty) {
				return false
			}
		}
	}
}

// Begin transitions v from Scheduled to Running. Only the worker that
// dequeued v's sole queue slot may call it; the vertex is necessarily
// Scheduled at that point (Post keeps it Scheduled while queued), so a
// plain store suffices.
func (st *States) Begin(v int) {
	st.s[v].Store(StateRunning)
}

// Finish retires v's run. It returns true iff a wakeup arrived mid-run
// (RunningDirty): the vertex has been moved back to Scheduled and the
// caller must re-enqueue it. Only the runner may call Finish, and only the
// runner moves a vertex out of Running/RunningDirty, so the fallback store
// cannot race another writer.
func (st *States) Finish(v int) bool {
	s := &st.s[v]
	if s.CompareAndSwap(StateRunning, StateIdle) {
		return false
	}
	// The only other reachable state here is RunningDirty.
	s.Store(StateScheduled)
	return true
}

// Load reports v's current state (racy; for tests and telemetry).
func (st *States) Load(v int) uint32 { return st.s[v].Load() }

// Reset returns every vertex to Idle. Not safe for concurrent use.
func (st *States) Reset() {
	for i := range st.s {
		st.s[i].Store(StateIdle)
	}
}
