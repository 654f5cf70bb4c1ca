package async

import (
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
