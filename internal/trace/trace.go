// Package trace records execution paths of engine runs: which update ran
// in which iteration on which worker, which value it committed to its
// vertex, and — when the commit log is enabled — every edge-data word it
// committed, in the physical commit order. The paper frames deterministic
// scheduling as "plotting the execution path of the updates" and attributes
// its overhead to exactly this bookkeeping; recording the path of a
// nondeterministic run makes the difference between runs tangible — two
// deterministic runs produce identical traces, two nondeterministic runs do
// not — and recording the racy-edge winners makes a nondeterministic run
// *replayable* (see the core engine's ReplayTrace).
//
// The recorder is lock-free on the hot path (one atomic append cursor per
// log) and bounded: traces longer than the configured capacity drop the
// tail and report truncation rather than growing without bound.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Event is one recorded update execution.
type Event struct {
	// Iteration is the engine iteration (0-based). The barrier-free
	// executor (nosync) has no iterations and records 0.
	Iteration int32
	// Worker is the executing worker's index.
	Worker int32
	// Vertex is the updated vertex.
	Vertex uint32
	// Writes counts edge writes the update performed.
	Writes uint32
	// Seq is the global record order (capture order: the order updates were
	// dispatched, not a happens-before order across workers).
	Seq int64
	// Value is the vertex data word committed by the update (D_v after
	// f(v) returned).
	Value uint64
}

// Commit is one committed edge-data write. When the caller serializes
// commits per edge (the core engine holds a striped lock around the store
// and the RecordCommit call), Seq order per edge equals the physical store
// order, so the last commit per edge is the racy-edge winner — the value
// Lemmas 1 and 2 say must be one of the competing writes.
type Commit struct {
	// Seq is the global commit order (per-edge physical order).
	Seq int64
	// Update is the capture index (Event.Seq) of the committing update, or
	// -1 when the owner is unknown.
	Update int64
	// Edge is the canonical edge index.
	Edge uint32
	// Iteration is the engine iteration of the commit.
	Iteration int32
	// Value is the committed edge-data word.
	Value uint64
}

// Recorder accumulates events (and optionally edge commits) up to fixed
// capacities.
type Recorder struct {
	events []Event
	cursor atomic.Int64

	// Commit log, allocated by EnableCommits.
	commits      []Commit
	commitCursor atomic.Int64

	// lastCommitIter[e] is the iteration of edge e's most recent commit,
	// -1 when never committed; it detects contested edges (two commits to
	// one edge within one iteration — the racy-winner sites under
	// nondeterministic execution). Guarded by the caller's per-edge commit
	// serialization, like the per-edge Seq order.
	lastCommitIter []int32

	// iterCommits / iterContested accumulate per-iteration commit telemetry,
	// drained by TakeIterCommitStats at the engine barrier.
	iterCommits   atomic.Int64
	iterContested atomic.Int64

	// digest is the recorded run's final-state digest (DigestWords over the
	// vertex then edge words), installed by the engine at run end.
	digest    uint64
	hasDigest bool
}

// NewRecorder returns a Recorder with room for capacity events. Edge-commit
// recording is off until EnableCommits.
func NewRecorder(capacity int) *Recorder {
	if capacity < 0 {
		capacity = 0
	}
	return &Recorder{events: make([]Event, capacity)}
}

// EnableCommits allocates the commit log: room for capacity commits over a
// store of `edges` edge slots. Engines that support replay record every
// committed edge write when the log is present.
func (r *Recorder) EnableCommits(capacity, edges int) {
	if capacity < 0 {
		capacity = 0
	}
	r.commits = make([]Commit, capacity)
	r.lastCommitIter = make([]int32, edges)
	for i := range r.lastCommitIter {
		r.lastCommitIter[i] = -1
	}
	r.commitCursor.Store(0)
}

// CommitsEnabled reports whether the commit log is allocated.
func (r *Recorder) CommitsEnabled() bool { return r.commits != nil || r.lastCommitIter != nil }

// Begin reserves the next capture slot for an update on vertex v and
// returns its index, or -1 when the trace is at capacity (the event is
// counted but dropped). Safe for concurrent use. Complete the event with
// Finish once the update has run.
func (r *Recorder) Begin(iteration, worker int, vertex uint32) int64 {
	seq := r.cursor.Add(1) - 1
	if seq >= int64(len(r.events)) {
		return -1
	}
	r.events[seq] = Event{
		Iteration: int32(iteration),
		Worker:    int32(worker),
		Vertex:    vertex,
		Seq:       seq,
	}
	return seq
}

// Finish completes the event reserved by Begin with the update's write
// count and committed vertex value. idx -1 (a dropped event) is a no-op.
func (r *Recorder) Finish(idx int64, writes int, value uint64) {
	if idx < 0 {
		return
	}
	e := &r.events[idx]
	e.Writes = uint32(writes)
	e.Value = value
}

// Record appends a complete event (Begin + Finish). Safe for concurrent
// use. Events beyond the capacity are counted but dropped.
func (r *Recorder) Record(iteration, worker int, vertex uint32, writes int, value uint64) {
	r.Finish(r.Begin(iteration, worker, vertex), writes, value)
}

// RecordCommit appends one committed edge write owned by the update at
// capture index `update` (-1 if unknown). The caller MUST serialize the
// physical store and this call per edge (e.g. under a striped lock): that
// is what makes per-edge Seq order equal physical commit order, the
// property replay relies on. Commits beyond the capacity are counted but
// dropped.
func (r *Recorder) RecordCommit(update int64, iteration int, edge uint32, value uint64) {
	r.iterCommits.Add(1)
	if li := r.lastCommitIter; li != nil && int(edge) < len(li) {
		if li[edge] == int32(iteration) {
			r.iterContested.Add(1)
		}
		li[edge] = int32(iteration)
	}
	seq := r.commitCursor.Add(1) - 1
	if seq >= int64(len(r.commits)) {
		return
	}
	r.commits[seq] = Commit{
		Seq:       seq,
		Update:    update,
		Edge:      edge,
		Iteration: int32(iteration),
		Value:     value,
	}
}

// TakeIterCommitStats returns and resets the commit telemetry accumulated
// since the previous call: total commits and contested commits (a commit to
// an edge already committed in the same iteration). Engines drain it at the
// iteration barrier for the observability layer.
func (r *Recorder) TakeIterCommitStats() (commits, contested int64) {
	return r.iterCommits.Swap(0), r.iterContested.Swap(0)
}

// SetDigest installs the final-state digest of the recorded run (see
// DigestWords). Call once, after the run, from a single goroutine.
func (r *Recorder) SetDigest(d uint64) { r.digest, r.hasDigest = d, true }

// Digest returns the recorded final-state digest, if one was installed.
func (r *Recorder) Digest() (uint64, bool) { return r.digest, r.hasDigest }

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	n := r.cursor.Load()
	if n > int64(len(r.events)) {
		return len(r.events)
	}
	return int(n)
}

// EventsTruncated reports whether events were dropped for capacity.
func (r *Recorder) EventsTruncated() bool { return r.cursor.Load() > int64(len(r.events)) }

// CommitsTruncated reports whether commits were dropped for capacity.
func (r *Recorder) CommitsTruncated() bool { return r.commitCursor.Load() > int64(len(r.commits)) }

// Truncated reports whether any part of the trace was dropped for capacity.
func (r *Recorder) Truncated() bool { return r.EventsTruncated() || r.CommitsTruncated() }

// Total returns the number of Begin/Record calls, including dropped ones.
func (r *Recorder) Total() int64 { return r.cursor.Load() }

// TotalCommits returns the number of RecordCommit calls, including dropped
// ones.
func (r *Recorder) TotalCommits() int64 { return r.commitCursor.Load() }

// Events returns the retained events in capture order. The returned slice
// aliases internal storage; callers must not mutate it.
func (r *Recorder) Events() []Event { return r.events[:r.Len()] }

// Commits returns the retained commits in commit order. The returned slice
// aliases internal storage; callers must not mutate it.
func (r *Recorder) Commits() []Commit {
	n := r.commitCursor.Load()
	if n > int64(len(r.commits)) {
		n = int64(len(r.commits))
	}
	return r.commits[:n]
}

// Reset clears the recorder (events, commits, digest) for reuse.
func (r *Recorder) Reset() {
	r.cursor.Store(0)
	r.commitCursor.Store(0)
	r.iterCommits.Store(0)
	r.iterContested.Store(0)
	for i := range r.lastCommitIter {
		r.lastCommitIter[i] = -1
	}
	r.digest, r.hasDigest = 0, false
}

// Path returns the execution path as vertex ids in capture order —
// the paper's "execution path of the updates".
func (r *Recorder) Path() []uint32 {
	evs := r.Events()
	out := make([]uint32, len(evs))
	for i, e := range evs {
		out[i] = e.Vertex
	}
	return out
}

// Equal reports whether two recorders captured identical paths (same
// vertices in the same order with the same iteration structure). Worker
// assignment is ignored: the same logical path on different workers is
// still the same path.
func Equal(a, b *Recorder) bool {
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) || a.Truncated() != b.Truncated() {
		return false
	}
	for i := range ea {
		if ea[i].Vertex != eb[i].Vertex || ea[i].Iteration != eb[i].Iteration {
			return false
		}
	}
	return true
}

// Divergence returns the first capture index at which two paths differ,
// or -1 if one is a prefix of the other (including full equality) — the
// trace analog of the paper's difference degree.
func Divergence(a, b *Recorder) int {
	ea, eb := a.Events(), b.Events()
	n := len(ea)
	if len(eb) < n {
		n = len(eb)
	}
	for i := 0; i < n; i++ {
		if ea[i].Vertex != eb[i].Vertex {
			return i
		}
	}
	if len(ea) != len(eb) {
		return n
	}
	return -1
}

// IterationSummary aggregates one iteration's events.
type IterationSummary struct {
	Iteration int
	Updates   int
	Writes    int64
	Workers   int // distinct workers observed
}

// Summarize groups the trace by iteration.
func (r *Recorder) Summarize() []IterationSummary {
	return summarize(r.Events())
}

func summarize(events []Event) []IterationSummary {
	byIter := map[int32]*IterationSummary{}
	workerSets := map[int32]map[int32]struct{}{}
	for _, e := range events {
		s := byIter[e.Iteration]
		if s == nil {
			s = &IterationSummary{Iteration: int(e.Iteration)}
			byIter[e.Iteration] = s
			workerSets[e.Iteration] = map[int32]struct{}{}
		}
		s.Updates++
		s.Writes += int64(e.Writes)
		workerSets[e.Iteration][e.Worker] = struct{}{}
	}
	out := make([]IterationSummary, 0, len(byIter))
	for it, s := range byIter {
		s.Workers = len(workerSets[it])
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iteration < out[j].Iteration })
	return out
}

// WriteCSV emits the trace as CSV (seq,iteration,worker,vertex,writes,value).
func (r *Recorder) WriteCSV(w io.Writer) error {
	return writeCSV(w, r.Events(), r.EventsTruncated(), r.Len(), r.Total())
}

func writeCSV(w io.Writer, events []Event, truncated bool, retained int, total int64) error {
	if _, err := fmt.Fprintln(w, "seq,iteration,worker,vertex,writes,value"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n", e.Seq, e.Iteration, e.Worker, e.Vertex, e.Writes, e.Value); err != nil {
			return err
		}
	}
	if truncated {
		if _, err := fmt.Fprintf(w, "# truncated: %d of %d events retained\n", retained, total); err != nil {
			return err
		}
	}
	return nil
}

// DigestWords folds a word slice into a running FNV-1a-style digest; chain
// calls to digest multiple arrays (conventionally vertices, then the edge
// snapshot). Use DigestSeed as the initial value.
func DigestWords(h uint64, words []uint64) uint64 {
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// DigestSeed is the initial value for DigestWords chains (FNV-1a offset
// basis).
const DigestSeed uint64 = 0xcbf29ce484222325
