package core

import (
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
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
