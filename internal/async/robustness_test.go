package async

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

// setupAsync prepares an executor with an algorithm's initial state but does
// not run it, so tests can exercise error paths the runAsync helper fatals on.
func setupAsync(t *testing.T, a algorithms.Algorithm, g *graph.Graph, opts Options) *Executor {
	t.Helper()
	e, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Setup(e)
	x, err := NewExecutor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.LoadFrom(e); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestAsyncContextCancelledBeforeRun(t *testing.T) {
	g, err := gen.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := setupAsync(t, algorithms.NewWCC(), g, Options{Threads: 2, Mode: edgedata.ModeAtomic, Context: ctx})
	res, err := x.Run(algorithms.NewWCC().Update)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Converged {
		t.Fatal("cancelled run reported convergence")
	}
}

func TestAsyncContextCancelMidRun(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 81)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	ctx, cancel := context.WithCancel(context.Background())
	x := setupAsync(t, wcc, g, Options{Threads: 4, Mode: edgedata.ModeAtomic, Context: ctx})
	var updates atomic.Int64
	res, err := x.Run(func(v core.VertexView) {
		// Every update from the 50th on cancels, not just the 50th: a lone
		// canceller preempted between the count and the call lets the other
		// workers finish the run first. At most Threads updates can sit in
		// that window, so hundreds of seeds are still queued when one lands.
		if updates.Add(1) >= 50 {
			cancel()
		}
		wcc.Update(v)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Converged {
		t.Fatal("cancelled run reported convergence")
	}
	if res.Updates == 0 {
		t.Fatal("cancelled run reports no partial progress")
	}
}

func TestAsyncUpdatePanicSurfacedAsError(t *testing.T) {
	g, err := gen.Ring(32)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	x := setupAsync(t, wcc, g, Options{Threads: 4, Mode: edgedata.ModeAtomic})
	_, err = x.Run(func(v core.VertexView) {
		if v.V() == 17 {
			panic("kaboom")
		}
		wcc.Update(v)
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if !strings.Contains(err.Error(), "panicked on vertex 17") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic error lacks context: %v", err)
	}
}

// The barrier-free executor under injection: the heal hook re-enqueues both
// endpoints of every faulted edge, so Theorem 2's retry argument applies
// without iterations — WCC must still drain to the exact reference labels.
func TestAsyncWCCReconvergesUnderInjection(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 82)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	want := algorithms.ReferenceWCC(g)
	var injected int64
	for _, seed := range []uint64{1, 2, 3} {
		inj := fault.MustInjector(fault.Plan{
			Seed:      seed,
			TornWrite: 0.02,
			DropWrite: 0.05,
			StaleRead: 0.05,
			MaxFaults: 5000,
		})
		x := setupAsync(t, wcc, g, Options{Threads: 4, Mode: edgedata.ModeAtomic, Inject: inj})
		res, err := x.Run(wcc.Update)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge (%v)", seed, inj.Stats())
		}
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("seed %d (%v): vertex %d = %d, want %d",
					seed, inj.Stats(), v, x.Vertices[v], want[v])
			}
		}
		injected += inj.Stats().Total()
	}
	if injected == 0 {
		t.Fatal("no faults injected: the recovery test exercised nothing")
	}
}
