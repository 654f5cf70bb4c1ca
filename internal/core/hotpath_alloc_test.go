//go:build !race

package core

import (
	"io"
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// The race detector's instrumentation allocates, so the steady-state
// zero-allocation property only holds — and is only asserted — in non-race
// builds (ci.sh races internal/core with -short; these tests are not short).

// selfSchedulingUpdate keeps every vertex scheduled forever, so Run spins
// the full dispatch machinery — frontier rebuild, (for Synchronous) edge
// snapshot, pool barrier, update calls — for exactly MaxIters iterations.
func selfSchedulingUpdate(ctx VertexView) {
	ctx.SetVertex(ctx.Vertex())
	ctx.ScheduleSelf()
}

// bulkSelfSchedulingUpdate is selfSchedulingUpdate plus all three bulk
// accessors: both scratch buffers held at once, then a broadcast store. On
// a plain run that is one store call each; on an instrumented run (the
// observed and synchronous cases below) it is the per-edge fallback. Either
// way the scratch grows during warm-up and is reused from then on.
func bulkSelfSchedulingUpdate(ctx VertexView) {
	min := ctx.Vertex()
	in, out := ctx.InEdgeVals(), ctx.OutEdgeVals()
	for _, w := range in {
		if w < min {
			min = w
		}
	}
	for _, w := range out {
		if w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	ctx.SetOutEdgeVals(min)
	ctx.ScheduleSelf()
}

// newDiscardObserver builds an observer with a JSONL sink writing to
// io.Discard — the full enabled telemetry path, minus the file.
func newDiscardObserver() *obs.Observer {
	o := obs.New(obs.Options{})
	o.AttachSink(obs.NewJSONLSink(io.Discard))
	return o
}

// runAllocs measures the average heap allocations of one Run capped at
// iters iterations, after the engine has been warmed once.
func runAllocs(t *testing.T, e *Engine, update UpdateFunc, iters int) float64 {
	t.Helper()
	e.loop.MaxIters = iters
	return testing.AllocsPerRun(5, func() {
		if _, err := e.Run(update); err != nil {
			t.Fatal(err)
		}
	})
}

// After warm-up, an iteration must not allocate: the worker pool parks and
// wakes without spawning, the dispatch parameters live in engine fields, the
// BSP shadow is reused via SnapshotInto, and the frontier recycles its
// member cache. Any per-iteration allocation shows up here as the allocation
// count growing with MaxIters. NoSync has no iterations to count, so its
// hot path is pinned per update by TestNoSyncBulkUpdateSteadyStateDoesNotAllocate.
func TestRunSteadyStateIterationsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short budgets")
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"nondet-static", Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Static, Threads: 4, Mode: edgedata.ModeAligned}},
		{"nondet-dynamic", Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Dynamic, Threads: 4, Mode: edgedata.ModeAligned}},
		{"synchronous", Options{Scheduler: sched.Synchronous, Threads: 4, Mode: edgedata.ModeAligned}},
		{"deterministic", Options{Scheduler: sched.Deterministic}},
		// The observability layer must preserve the guarantee both ways:
		// observer attached (Emit + JSONL sink are allocation-free) and, by
		// the cases above, absent (one nil test per barrier).
		{"nondet-observed", Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Static, Threads: 4, Mode: edgedata.ModeAligned,
			Observer: newDiscardObserver()}},
		{"deterministic-observed", Options{Scheduler: sched.Deterministic, Observer: newDiscardObserver()}},
	}
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	updates := []struct {
		name string
		fn   UpdateFunc
	}{{"per-edge", selfSchedulingUpdate}, {"bulk", bulkSelfSchedulingUpdate}}
	for _, tc := range cases {
		for _, up := range updates {
			t.Run(tc.name+"/"+up.name, func(t *testing.T) {
				e := newEngine(t, g, tc.opts)
				initMinLabel(e)
				e.loop.MaxIters = 3
				if _, err := e.Run(up.fn); err != nil { // warm-up
					t.Fatal(err)
				}
				short := runAllocs(t, e, up.fn, 10)
				long := runAllocs(t, e, up.fn, 60)
				// Per-Run fixed costs (if any) cancel in the difference; 50
				// extra iterations must not add even one allocation.
				if delta := long - short; delta >= 1 {
					t.Errorf("50 extra iterations allocate %.1f more (run@10 = %.1f, run@60 = %.1f); want 0 per iteration",
						delta, short, long)
				}
			})
		}
	}
}

// A steady-state NoSync update allocates nothing: the bulk slices are the
// worker context's scratch, grown while the first pass over the vertices
// meets the largest degree and reused from then on, and wakeups go onto a
// deque that has already grown. Measured on worker 0's context directly
// (bind + update) because a whole Run has fixed per-call costs (deques,
// seed claims) that are not the hot path. Both the plain path and the
// observed one (delay clock: per-edge fallback) count.
func TestNoSyncBulkUpdateSteadyStateDoesNotAllocate(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, observed := range []bool{false, true} {
		opts := nosyncOptions(1)
		name := "plain"
		if observed {
			opts.Observer, name = obs.New(obs.Options{}), "observed"
		}
		e := newEngine(t, g, opts)
		defer e.Close()
		t.Run("nosync/"+name, func(t *testing.T) {
			// A run that wakes nothing builds the contexts and sets plain.
			e.Frontier().ScheduleAll()
			if _, err := e.Run(func(VertexView) {}); err != nil {
				t.Fatal(err)
			}
			initMinLabel(e)
			ns, c := e.ns, &e.workers[0]
			if c.plain == observed {
				t.Fatalf("context plain = %v on an observed = %v run", c.plain, observed)
			}
			pass := func() {
				for v := 0; v < g.N(); v++ {
					c.bind(uint32(v))
					bulkMinLabelUpdate(c)
					// Empty what the update's wakeups enqueued, so queue
					// growth is not charged to the accessors.
					for {
						if _, ok := ns.deques[0].Steal(); !ok {
							break
						}
					}
					ns.state.Reset()
				}
			}
			pass() // warm-up: the scratch grows to the largest degree
			if avg := testing.AllocsPerRun(3, pass); avg > 0 {
				t.Errorf("a pass of %d bulk updates allocates %.1f times in steady state, want 0", g.N(), avg)
			}
		})
	}
}

// Reset clears a used engine in place: vertex and edge words, the census,
// and the frontier with its member cache and per-worker sets, which it
// keeps instead of reallocating.
func TestResetDoesNotAllocate(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Scheduler: sched.Nondeterministic, Threads: 2, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.Deterministic, EnableCensus: true},
		nosyncOptions(2),
	} {
		e := newEngine(t, g, opts)
		initMinLabel(e)
		if _, err := e.Run(minLabelUpdate); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(10, e.Reset); avg != 0 {
			t.Errorf("%v: Reset allocates %.1f times, want 0", opts.Scheduler, avg)
		}
		e.Close()
	}
}
