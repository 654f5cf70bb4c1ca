package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/sched"
)

// The run lifecycle exists once (core.Lifecycle, which core.Loop wraps for
// the barrier engines), so its contract is tested once: every in-memory
// tier — barrier and barrier-free — × every way a run can end early must
// hand back the same partial result — Converged false, progress and
// Duration describing the work actually done — next to the same error. A
// barrier-free tier's progress is counted in rounds of |V| executed
// updates. netdist runs the same scenarios in its own package
// (TestRunLifecycle), where a hooked kernel can reach its workers.

const lifecycleN = 64 // chain length: a converging run takes ~lifecycleN iterations

// workload is what a scenario makes the engine execute. hook, when non-nil,
// runs inside user code with the id the row ticks on (the vertex for update
// functions, the canonical edge for hybrid's Message) and may cancel or
// panic; spin makes the computation never quiesce.
type workload struct {
	hook func(id uint32)
	spin bool
}

// knobs are the lifecycle settings a scenario fixes when the engine is built.
type knobs struct {
	ctx      context.Context
	maxIters int
	stall    int
}

type partial struct {
	iterations int
	converged  bool
	duration   time.Duration
}

// lifecycleRow is one engine configuration. open builds a fresh engine; the
// returned run (re)initialises the min-label state from scratch and runs w,
// so it can be called again after a failed run.
type lifecycleRow struct {
	name string
	open func(t *testing.T, k knobs) (run func(w workload) (partial, error))
	// target is the id at which the panic scenario's hook panics; named is
	// the vertex the resulting error must name. ticksPerIter bounds the
	// hook calls of one iteration (round). skip names the scenarios a tier
	// has no knob for, with the reason.
	target, named uint32
	ticksPerIter  int
	skip          map[string]string
}

func lifecycleRows(t *testing.T) []lifecycleRow {
	t.Helper()
	chain, err := gen.Chain(lifecycleN)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	update := func(w workload) core.UpdateFunc {
		return func(v core.VertexView) {
			if w.hook != nil {
				w.hook(v.V())
			}
			if w.spin {
				v.ScheduleSelf()
				return
			}
			wcc.Update(v)
		}
	}
	// Reversed labels: the minimum sits at the chain's far end and travels
	// against processing order, so even the sequential engine needs about
	// one iteration per vertex.
	reversed := func(words []uint64) {
		for i := range words {
			words[i] = uint64(len(words) - 1 - i)
		}
	}

	// progress is a run's count of iterations; a NoSync run has none, so
	// its progress is counted in rounds of |V| updates and its cap is in
	// updates, MaxIters × |V|.
	coreRow := func(name string, opts core.Options, skip map[string]string) lifecycleRow {
		progress := func(res core.Result) int { return res.Iterations }
		if opts.Scheduler == sched.NoSync {
			progress = func(res core.Result) int { return int(res.Updates / lifecycleN) }
		}
		return lifecycleRow{name: name, target: 17, named: 17, ticksPerIter: lifecycleN, skip: skip,
			open: func(t *testing.T, k knobs) func(workload) (partial, error) {
				opts := opts
				opts.Context, opts.MaxIters, opts.StallWindow = k.ctx, k.maxIters, k.stall
				e, err := core.NewEngine(chain, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				return func(w workload) (partial, error) {
					e.Reset()
					reversed(e.Vertices)
					e.Edges.Fill(^uint64(0))
					e.Frontier().ScheduleAll()
					res, err := e.Run(update(w))
					return partial{progress(res), res.Converged, res.Duration}, err
				}
			}}
	}

	undirected := chain.Undirected()
	e17, ok := undirected.FindEdge(17, 18)
	if !ok {
		t.Fatal("chain has no edge 17→18")
	}
	// EdgeIndexed makes the pull sweeps pass the canonical edge too, so the
	// hook ticks on the same ids in either direction.
	kernel := func(w workload) algorithms.Kernel {
		k := algorithms.WCCKernel()
		k.EdgeIndexed = true
		k.Init = func(g *graph.Graph) ([]uint64, []int) {
			vals := make([]uint64, g.N())
			reversed(vals)
			return vals, nil
		}
		k.Message = func(srcVal uint64, e uint32) uint64 {
			if w.hook != nil {
				w.hook(e)
			}
			return srcVal
		}
		if w.spin {
			k.Better = func(_, _ uint64) bool { return true }
		}
		return k
	}
	hybridRow := func(name string, policy hybrid.Policy, named uint32) lifecycleRow {
		return lifecycleRow{name: name, target: e17, named: named, ticksPerIter: undirected.M(),
			skip: map[string]string{"max-iters": "engine exposes no iteration cap (core.DefaultMaxIters only)"},
			open: func(t *testing.T, k knobs) func(workload) (partial, error) {
				e, err := hybrid.NewEngine(undirected, 2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				e.Policy, e.StallWindow = policy, k.stall
				return func(w workload) (partial, error) {
					res, err := e.Run(k.ctx, kernel(w))
					return partial{res.Iterations, res.Converged, res.Duration}, err
				}
			}}
	}
	forced := func(d hybrid.Direction) hybrid.Policy {
		return func(hybrid.Stats) hybrid.Direction { return d }
	}

	wccVerdict, err := algorithms.NoSyncVerdict(wcc, chain)
	if err != nil {
		t.Fatal(err)
	}
	noWatchdog := "no watchdog: NewEngine refuses StallWindow under NoSync; the update cap is its divergence guard"

	return []lifecycleRow{
		coreRow("core-det", core.Options{Scheduler: sched.Deterministic}, nil),
		coreRow("core-nondet", core.Options{Scheduler: sched.Nondeterministic, Threads: 2, Mode: edgedata.ModeAtomic}, nil),
		// A push names the source of the relaxed edge, a pull the
		// destination gathering over it. The default policy never pulls a
		// kernel without FirstOfferWins, so it names the source too.
		hybridRow("hybrid-forced-push", forced(hybrid.Push), 17),
		hybridRow("hybrid-forced-pull", forced(hybrid.Pull), 18),
		hybridRow("hybrid-default", nil, 17),
		coreRow("nosync", core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: &wccVerdict},
			map[string]string{"stall-trips": noWatchdog, "stall-spares-converging": noWatchdog}),
	}
}

func TestLifecycle(t *testing.T) {
	for _, row := range lifecycleRows(t) {
		row := row
		prefix := strings.SplitN(row.name, "-", 2)[0] // the engine's error prefix
		skip := func(t *testing.T, scenario string) {
			if why, ok := row.skip[scenario]; ok {
				t.Skip(why)
			}
		}
		// stopped asserts the part of the contract every early end shares.
		stopped := func(t *testing.T, p partial, err, want error) {
			t.Helper()
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if p.converged {
				t.Fatalf("stopped run reported Converged: %+v", p)
			}
			if p.iterations > 0 && p.duration <= 0 {
				t.Fatalf("stopped run after %d iterations carries no Duration: %+v", p.iterations, p)
			}
		}

		t.Run(row.name+"/ctx-pre-expired", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ticks := 0
			p, err := row.open(t, knobs{ctx: ctx})(workload{hook: func(uint32) { ticks++ }})
			stopped(t, p, err, context.Canceled)
			if p.iterations != 0 || ticks != 0 {
				t.Fatalf("pre-cancelled run did work: %+v, %d ticks", p, ticks)
			}
		})

		t.Run(row.name+"/ctx-cancel-mid-run", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel from inside the run, on a count rather than a timer, so
			// the cancellation lands mid-iteration on any schedule.
			cancelAt := int64(3*row.ticksPerIter/2 + 1)
			var ticks atomic.Int64
			p, err := row.open(t, knobs{ctx: ctx})(workload{hook: func(uint32) {
				if ticks.Add(1) == cancelAt {
					cancel()
				}
			}})
			stopped(t, p, err, context.Canceled)
			if p.iterations == 0 {
				t.Fatalf("cancelled run reports no partial progress: %+v", p)
			}
			// The barrier check stops the engine before another full
			// iteration dispatches.
			if after := ticks.Load() - cancelAt; after >= int64(row.ticksPerIter) {
				t.Fatalf("%d ticks ran after cancellation — more than the in-flight iteration (%d)", after, row.ticksPerIter)
			}
		})

		t.Run(row.name+"/max-iters", func(t *testing.T) {
			skip(t, "max-iters")
			p, err := row.open(t, knobs{maxIters: 3})(workload{})
			if err != nil {
				t.Fatalf("hitting the cap is not an error: %v", err)
			}
			if p.converged || p.iterations != 3 || p.duration <= 0 {
				t.Fatalf("capped run reported %+v, want 3 unconverged iterations", p)
			}
		})

		t.Run(row.name+"/stall-trips", func(t *testing.T) {
			skip(t, "stall-trips")
			const window = 3
			p, err := row.open(t, knobs{stall: window})(workload{spin: true})
			stopped(t, p, err, core.ErrStalled)
			// Iteration 0 establishes the best size; the watchdog trips at
			// the barrier entering iteration `window`.
			if p.iterations != window {
				t.Fatalf("watchdog fired after %d iterations, want %d", p.iterations, window)
			}
			want := fmt.Sprintf("%s: iteration %d: active vertices %d (best %d) unimproved for %d iterations",
				prefix, window, lifecycleN, lifecycleN, window)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("watchdog error %q lacks %q", err, want)
			}
		})

		t.Run(row.name+"/stall-spares-converging", func(t *testing.T) {
			skip(t, "stall-spares-converging")
			// A window wider than the whole run must not fire.
			p, err := row.open(t, knobs{stall: 4 * lifecycleN})(workload{})
			if err != nil {
				t.Fatalf("watchdog mistook convergence for a stall: %v", err)
			}
			if !p.converged || p.iterations == 0 {
				t.Fatalf("did not converge: %+v", p)
			}
		})

		t.Run(row.name+"/panic", func(t *testing.T) {
			run := row.open(t, knobs{})
			p, err := run(workload{hook: func(id uint32) {
				if id == row.target {
					panic("kaboom")
				}
			}})
			if err == nil {
				t.Fatal("panic not surfaced as an error")
			}
			want := fmt.Sprintf("%s: update function panicked on vertex %d: kaboom", prefix, row.named)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("panic error %q lacks %q", err, want)
			}
			if p.converged {
				t.Fatalf("panicked run reported Converged: %+v", p)
			}
			// The engine is not poisoned: the same instance runs again.
			if p, err := run(workload{}); err != nil || !p.converged {
				t.Fatalf("rerun after panic: %+v, %v", p, err)
			}
		})
	}
}
