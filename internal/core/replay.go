// Record/replay for nondeterministic runs — Lemmas 1 and 2 made
// executable. A nondeterministic run is nondeterministic only in which of
// the competing writes each racy edge commits (per-operation atomicity
// guarantees it commits exactly one of them, never a mangled mix). So a
// run is fully determined by its execution path plus, for every edge, the
// sequence of values it physically committed. Recording both (Options.
// Trace with EnableCommits) and then forcing the recorded commit outcomes
// during re-execution must reproduce the byte-identical final state — and
// ReplayTrace asserts exactly that, against the digest the recorded run
// installed at its finish.
package core

import (
	"errors"
	"fmt"

	"ndgraph/internal/trace"
)

// traceStripes is the number of commit-order lock stripes. Edge writes of
// a commit-logged run serialize per stripe (edge mod traceStripes), which
// is what makes "recorded per-edge order" equal "physical store order".
const traceStripes = 64

// commitStore performs one edge write of a commit-logged run: the physical
// store and the commit record of the context's running update happen
// atomically under the edge's stripe lock, so the recorder's per-edge Seq
// order is the physical commit order.
func (c *Ctx) commitStore(edge uint32, w uint64) {
	e := c.eng
	l := &e.traceLocks[edge%traceStripes]
	l.Lock()
	c.liveStore(edge, w)
	e.opts.Trace.RecordCommit(c.traceIdx, e.curIter, edge, w)
	l.Unlock()
}

// stateDigest digests the engine's complete mutable state (vertex words,
// then an edge-store snapshot) — the "byte-identical fixed point" check.
func (e *Engine) stateDigest() uint64 {
	e.shadow = e.Edges.SnapshotInto(e.shadow)
	return trace.DigestWords(trace.DigestWords(trace.DigestSeed, e.Vertices), e.shadow)
}

// ErrReplayDiverged is returned by ReplayTrace when the replayed final
// state does not match the recorded run's digest.
var ErrReplayDiverged = errors.New("core: replayed state diverges from recorded digest")

// ReplayReport summarizes a replay: how faithfully re-execution reproduced
// the recorded outcomes (diagnostics) and whether the forced replay
// reached the recorded fixed point (the assertion).
type ReplayReport struct {
	// Updates and Commits are the replayed event/commit counts.
	Updates int64
	Commits int64

	// WriteMatches counts re-executed edge writes that recomputed exactly
	// the recorded commit (same edge, same value); WriteMismatches counts
	// re-executed writes whose recomputation differed (the recorded
	// outcome is forced either way). Mismatches are expected: replay
	// applies racy winners in recorded per-edge order, so intermediate
	// reads may observe different interleavings than the original run.
	WriteMatches    int64
	WriteMismatches int64
	// MissingWrites counts recorded commits the re-executed update did not
	// attempt (applied anyway); ExtraWrites counts attempted writes with
	// no recorded commit (discarded).
	MissingWrites int64
	ExtraWrites   int64
	// OrphanCommits counts commits with no owning update in the trace.
	OrphanCommits int64

	// ValueMatches / ValueMismatches compare each update's recomputed
	// vertex value against the recorded one (recorded value is forced).
	ValueMatches    int64
	ValueMismatches int64

	// Digest is the replayed final-state digest; DigestOK reports whether
	// it equals the recorded digest.
	Digest   uint64
	DigestOK bool
}

// replayer holds per-replay state shared by all update re-executions. The
// updates run on a dry Ctx whose edge writes come here: reads see the
// replayed state, vertex writes go to the context's scratch word, and edge
// writes are matched against — and replaced by — the recorded commits.
// Nothing is scheduled; the trace itself is the schedule.
type replayer struct {
	e *Engine
	// lastSeq[edge] is the Seq of the latest commit applied to the edge;
	// a commit is only stored if its Seq is newer, so the final per-edge
	// value is the recorded racy winner regardless of the order replay
	// encounters commits in.
	lastSeq []int64
	rep     *ReplayReport

	// commits are the running update's recorded commits, next the first
	// not yet consumed.
	commits []trace.Commit
	next    int
}

func (r *replayer) apply(c trace.Commit) {
	if c.Seq > r.lastSeq[c.Edge] {
		r.e.Edges.Store(c.Edge, c.Value)
		r.lastSeq[c.Edge] = c.Seq
	}
}

// commitNext consumes the running update's next recorded commit in place
// of its attempted write of w to edge.
func (r *replayer) commitNext(edge uint32, w uint64) {
	rep := r.rep
	if r.next >= len(r.commits) {
		rep.ExtraWrites++
		return
	}
	c := r.commits[r.next]
	r.next++
	if c.Edge == edge && c.Value == w {
		rep.WriteMatches++
	} else {
		rep.WriteMismatches++
	}
	r.apply(c)
}

// ReplayTrace re-executes the recorded run on this engine and asserts the
// byte-identical fixed point. The engine must hold the same initial state
// the recorded run started from (same graph, same algorithm Setup); the
// trace must be complete (untruncated) with the commit log and digest
// present. Replay is single-threaded and deterministic: updates re-execute
// in capture order, every edge write is forced to its recorded outcome,
// and the final state digest must equal the recorded one (else
// ErrReplayDiverged).
func (e *Engine) ReplayTrace(t *trace.Trace, update UpdateFunc) (ReplayReport, error) {
	var rep ReplayReport
	if e.ns != nil {
		return rep, fmt.Errorf("core: the nosync scheduler records no commit log and cannot honour ReplayTrace")
	}
	if t == nil || update == nil {
		return rep, fmt.Errorf("core: replay needs a trace and an update function")
	}
	if t.Truncated() {
		return rep, fmt.Errorf("core: cannot replay a truncated trace (%d/%d events, %d/%d commits retained)",
			len(t.Events), t.TotalEvents, len(t.Commits), t.TotalCommits)
	}
	if !t.HasDigest {
		return rep, fmt.Errorf("core: trace has no final-state digest; was it recorded through Run?")
	}
	if t.Meta.Vertices != 0 && t.Meta.Vertices != e.g.N() {
		return rep, fmt.Errorf("core: trace is for %d vertices, graph has %d", t.Meta.Vertices, e.g.N())
	}
	if t.Meta.Edges != 0 && t.Meta.Edges != e.g.M() {
		return rep, fmt.Errorf("core: trace is for %d edges, graph has %d", t.Meta.Edges, e.g.M())
	}
	for i := range t.Events {
		if int(t.Events[i].Vertex) >= e.g.N() {
			return rep, fmt.Errorf("core: trace event %d names vertex %d outside the graph", i, t.Events[i].Vertex)
		}
	}

	// Index commits by owning update; commit order within one update is
	// its own write order (a single update's writes are sequential).
	byUpdate := make([][]trace.Commit, len(t.Events))
	var orphans []trace.Commit
	for _, c := range t.Commits {
		if int(c.Edge) >= e.g.M() {
			return rep, fmt.Errorf("core: trace commit %d names edge %d outside the graph", c.Seq, c.Edge)
		}
		if c.Update >= 0 && c.Update < int64(len(byUpdate)) {
			byUpdate[c.Update] = append(byUpdate[c.Update], c)
		} else {
			orphans = append(orphans, c)
		}
	}

	r := &replayer{e: e, lastSeq: make([]int64, e.g.M()), rep: &rep}
	for i := range r.lastSeq {
		r.lastSeq[i] = -1
	}
	ctx := &Ctx{ctxState: ctxState{eng: e, dry: true, replay: r}}
	rep.Updates = int64(len(t.Events))
	rep.Commits = int64(len(t.Commits))

	for i := range t.Events {
		ev := &t.Events[i]
		r.commits, r.next = byUpdate[i], 0
		ctx.bind(ev.Vertex)
		update(ctx)
		// Recorded commits the re-execution did not reproduce are applied
		// anyway: the recorded run performed them, so the replayed state
		// must contain them.
		for ; r.next < len(r.commits); r.next++ {
			rep.MissingWrites++
			r.apply(r.commits[r.next])
		}
		if ctx.scratchVertex == ev.Value {
			rep.ValueMatches++
		} else {
			rep.ValueMismatches++
		}
		e.Vertices[ev.Vertex] = ev.Value
	}
	rep.OrphanCommits = int64(len(orphans))
	for _, c := range orphans {
		r.apply(c)
	}

	rep.Digest = e.stateDigest()
	rep.DigestOK = rep.Digest == t.Digest
	if !rep.DigestOK {
		return rep, fmt.Errorf("%w: replayed %#x, recorded %#x", ErrReplayDiverged, rep.Digest, t.Digest)
	}
	return rep, nil
}
