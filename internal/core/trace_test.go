package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
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
	if !bytes.Equal(canonicalTrace(a), canonicalTrace(b)) {
		t.Fatal("two deterministic runs recorded different traces")
	}
}

// The per-iteration structure of a trace matches the engine's
// per-iteration Observer events.
func TestTraceSummaryMatchesPerIter(t *testing.T) {
	g, err := gen.RMAT(150, 900, gen.DefaultRMAT, 92)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 16)
	o := obs.New(obs.Options{})
	defer o.Close()
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, Trace: rec, Observer: o})
	initMinLabel(e)
	if _, err := e.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	sums, evs := rec.Summarize(), o.Events()
	if len(sums) != len(evs) {
		t.Fatalf("trace has %d iterations, observer saw %d", len(sums), len(evs))
	}
	for i, s := range sums {
		if int64(s.Updates) != evs[i].Scheduled {
			t.Fatalf("iteration %d: trace %d updates, engine %d", i, s.Updates, evs[i].Scheduled)
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
	if !bytes.Equal(canonicalTrace(a), canonicalTrace(b)) {
		t.Fatal("two single-thread DIG runs recorded different traces")
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

// A traced update's write count is what the observer counts: under every
// barrier scheduler the trace's summed per-update Writes equal the
// observer's EdgeWrites, on the per-edge and the bulk write paths.
func TestTraceWritesMatchObserver(t *testing.T) {
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, 94)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Kind{sched.Deterministic, sched.Nondeterministic, sched.Synchronous, sched.DIG} {
		for _, update := range []UpdateFunc{minLabelUpdate, bulkMinLabelUpdate} {
			o := obs.New(obs.Options{})
			rec := trace.NewRecorder(1 << 16)
			e := newEngine(t, g, Options{
				Scheduler: s, Threads: 4, Mode: edgedata.ModeAtomic,
				MaxIters: 6, Observer: o, Trace: rec,
			})
			initMinLabel(e)
			if _, err := e.Run(update); err != nil {
				t.Fatal(err)
			}
			var writes int64
			for _, ev := range rec.Events() {
				writes += int64(ev.Writes)
			}
			if rec.EventsTruncated() || writes == 0 {
				t.Fatalf("%v: trace kept %d of %d events with %d writes", s, len(rec.Events()), rec.Total(), writes)
			}
			var observed int64
			for _, st := range o.Stats() {
				observed += st.EdgeWrites
			}
			if observed != writes {
				t.Fatalf("%v: observer counted %d edge writes, the trace %d", s, observed, writes)
			}
			e.Close()
			o.Close()
		}
	}
}
