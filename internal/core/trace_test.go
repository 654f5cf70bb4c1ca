package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

func runTraced(t *testing.T, opts Options) *trace.Recorder {
	t.Helper()
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, 91)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 16)
	opts.Trace = rec
	e := newEngine(t, g, opts)
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if int64(res.Updates) != rec.Total() {
		t.Fatalf("trace recorded %d events for %d updates", rec.Total(), res.Updates)
	}
	return rec
}

// Two deterministic runs record identical execution paths — the defining
// property of deterministic scheduling.
func TestTraceDeterministicRunsIdentical(t *testing.T) {
	a := runTraced(t, Options{Scheduler: sched.Deterministic})
	b := runTraced(t, Options{Scheduler: sched.Deterministic})
	if !trace.Equal(a, b) {
		t.Fatalf("deterministic traces diverge at %d", trace.Divergence(a, b))
	}
}

// The per-iteration structure of a trace matches the engine's reported
// iteration stats.
func TestTraceSummaryMatchesPerIter(t *testing.T) {
	g, err := gen.RMAT(150, 900, gen.DefaultRMAT, 92)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 16)
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, RecordIters: true, Trace: rec})
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sums := rec.Summarize()
	if len(sums) != len(res.PerIter) {
		t.Fatalf("trace has %d iterations, engine reported %d", len(sums), len(res.PerIter))
	}
	for i, s := range sums {
		if s.Updates != res.PerIter[i].Scheduled {
			t.Fatalf("iteration %d: trace %d updates, engine %d", i, s.Updates, res.PerIter[i].Scheduled)
		}
	}
}

// Nondeterministic execution uses multiple workers; the trace shows it.
func TestTraceObservesMultipleWorkers(t *testing.T) {
	rec := runTraced(t, Options{
		Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic,
	})
	maxWorkers := 0
	for _, s := range rec.Summarize() {
		if s.Workers > maxWorkers {
			maxWorkers = s.Workers
		}
	}
	if maxWorkers < 2 {
		t.Fatalf("nondeterministic trace saw at most %d workers", maxWorkers)
	}
}

// Single-threaded DIG runs are deterministic: independent-set rounds are
// dispatched through the pool's inline path in a fixed order. Two runs must
// trace identically — this pins the worker pool's degenerate (one-worker)
// dispatch to the exact behavior of the old one-shot dispatchers.
func TestTraceSingleThreadColorSchedulersIdentical(t *testing.T) {
	opts := Options{Scheduler: sched.DIG, Threads: 1, Mode: edgedata.ModeAtomic}
	a, b := runTraced(t, opts), runTraced(t, opts)
	if !trace.Equal(a, b) {
		t.Fatalf("single-thread DIG traces diverge at %d", trace.Divergence(a, b))
	}
}

// canonicalTrace serializes a recorder's events grouped by (iteration,
// worker). Capture order across workers is racy, but one worker's events
// are captured in its execution order, so a stable sort keeps that order
// and the bytes pin worker ids, per-worker order, writes and values.
func canonicalTrace(rec *trace.Recorder) []byte {
	ev := append([]trace.Event(nil), rec.Events()...)
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].Iteration != ev[j].Iteration {
			return ev[i].Iteration < ev[j].Iteration
		}
		return ev[i].Worker < ev[j].Worker
	})
	var buf bytes.Buffer
	for _, e := range ev {
		fmt.Fprintf(&buf, "%d %d %d %d %d\n", e.Iteration, e.Worker, e.Vertex, e.Writes, e.Value)
	}
	return buf.Bytes()
}

// hubsFirstRMAT is an R-MAT graph relabelled in descending-degree order,
// where the balanced static cut and Fig. 1's equal counts disagree most.
func hubsFirstRMAT(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(512, 4096, gen.DefaultRMAT, 93)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = graph.Relabel(g, graph.DegreeDescOrder(g)); err != nil {
		t.Fatal(err)
	}
	return g
}

// Static dispatch runs each iteration's scheduled set in the blocks
// sched.Cuts gives it: every traced update ran on the worker whose block
// holds its vertex.
func TestStaticDispatchFollowsCuts(t *testing.T) {
	g := hubsFirstRMAT(t)
	for _, k := range []sched.Kind{sched.Nondeterministic, sched.Synchronous} {
		for _, p := range []int{2, 3} {
			rec := trace.NewRecorder(1 << 16)
			e := newEngine(t, g, Options{Scheduler: k, Threads: p, Mode: edgedata.ModeAtomic, Trace: rec})
			initMinLabel(e)
			if res, err := e.Run(minLabelUpdate); err != nil || !res.Converged {
				t.Fatalf("%v P=%d: %v (converged=%v)", k, p, err, res.Converged)
			}
			byIter := map[int32][]trace.Event{}
			for _, ev := range rec.Events() {
				byIter[ev.Iteration] = append(byIter[ev.Iteration], ev)
			}
			for it, evs := range byIter {
				members := make([]int, len(evs))
				for i, ev := range evs {
					members[i] = int(ev.Vertex)
				}
				sort.Ints(members)
				cuts := sched.Cuts(nil, g, members, p)
				for _, ev := range evs {
					pos := sort.SearchInts(members, int(ev.Vertex))
					w := sort.Search(p, func(w int) bool { return cuts[w+1] > pos })
					if int(ev.Worker) != w {
						t.Fatalf("%v P=%d iteration %d: vertex %d ran on worker %d, its block is worker %d's (cuts %v)",
							k, p, it, ev.Vertex, ev.Worker, w, cuts)
					}
				}
			}
		}
	}
}

// Multi-worker DIG on a hubs-first graph: the cut depends only on the
// graph and the round, so two runs trace byte-identically.
func TestTraceDIGSkewedBlocksIdentical(t *testing.T) {
	g := hubsFirstRMAT(t)
	for _, p := range []int{2, 3} {
		var traces [2][]byte
		for run := range traces {
			rec := trace.NewRecorder(1 << 16)
			e := newEngine(t, g, Options{Scheduler: sched.DIG, Threads: p, Mode: edgedata.ModeAtomic, Trace: rec})
			initMinLabel(e)
			if res, err := e.Run(minLabelUpdate); err != nil || !res.Converged {
				t.Fatalf("P=%d: %v (converged=%v)", p, err, res.Converged)
			}
			if rec.Truncated() {
				t.Fatalf("P=%d: trace truncated", p)
			}
			workers := map[int32]bool{}
			for _, ev := range rec.Events() {
				workers[ev.Worker] = true
			}
			if len(workers) < 2 {
				t.Fatalf("P=%d: only %d worker ran", p, len(workers))
			}
			traces[run] = canonicalTrace(rec)
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Fatalf("P=%d: DIG traces differ across runs", p)
		}
	}
}
