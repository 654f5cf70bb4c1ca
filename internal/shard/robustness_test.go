package shard

import (
	"errors"
	"os"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

// initWCC seeds storage with the min-label initial state.
func initWCC(t *testing.T, st *Storage) {
	t.Helper()
	for v := range st.Vertices {
		st.Vertices[v] = uint64(v)
	}
	if err := st.FillValues(^uint64(0)); err != nil {
		t.Fatal(err)
	}
}

func rmatGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The out-of-core engine under injection: window slots map back to endpoint
// reschedules through the current interval's working set, so Theorem 2's
// retry argument holds across interval loads — WCC must reconverge exactly.
func TestShardWCCReconvergesUnderInjection(t *testing.T) {
	g := rmatGraph(t, 31)
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
		st := buildStorage(t, g, 3)
		initWCC(t, st)
		e, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		e.Frontier().ScheduleAll()
		res, err := e.Run(minLabel)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge (%v)", seed, inj.Stats())
		}
		for v := range want {
			if uint32(st.Vertices[v]) != want[v] {
				t.Fatalf("seed %d (%v): vertex %d = %d, want %d",
					seed, inj.Stats(), v, st.Vertices[v], want[v])
			}
		}
		injected += inj.Stats().Total()
	}
	if injected == 0 {
		t.Fatal("no faults injected: the recovery test exercised nothing")
	}
}

// An injected crash mid-run leaves the flushed on-disk values as the
// recovery point; a fresh engine over the same storage finishes the job.
func TestShardCrashThenRerunRecovers(t *testing.T) {
	g := rmatGraph(t, 32)
	want := algorithms.ReferenceWCC(g)
	st := buildStorage(t, g, 3)
	initWCC(t, st)

	inj := fault.MustInjector(fault.Plan{CrashIter: 1})
	crash, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	crash.Frontier().ScheduleAll()
	if _, err := crash.Run(minLabel); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crash run returned %v, want fault.ErrCrash", err)
	}

	resumed, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	resumed.Frontier().ScheduleAll()
	res, err := resumed.Run(minLabel)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("rerun did not converge")
	}
	for v := range want {
		if uint32(st.Vertices[v]) != want[v] {
			t.Fatalf("vertex %d = %d after crash+rerun, want %d", v, st.Vertices[v], want[v])
		}
	}
}

// A shard file that goes missing between two passes fails the next window
// load or write-back. Either way Run must hand back the error next to a
// partial Result — Converged false, the passes completed, the elapsed time —
// not Result{Converged: true} with a zero Duration.
func TestShardLifecycleStorageFailure(t *testing.T) {
	g, _ := gen.Chain(64)
	removeValues := func(t *testing.T, st *Storage) {
		for k := 0; k < st.NumShards(); k++ {
			if err := os.Remove(st.valuePath(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, res Result, err error) {
		t.Helper()
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want the missing file", err)
		}
		if res.Converged || res.Duration <= 0 {
			t.Fatalf("failed run reported %+v, want Converged=false and the elapsed Duration", res)
		}
	}

	t.Run("load", func(t *testing.T) {
		st := buildStorage(t, g, 2)
		initWCC(t, st)
		e, err := NewEngine(st, Options{Threads: 1, MaxIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Frontier().ScheduleAll()
		if res, err := e.Run(minLabel); err != nil || res.Converged || res.Iterations != 1 {
			t.Fatalf("first pass: %+v, %v", res, err)
		}
		removeValues(t, st)
		res, err := e.Run(minLabel)
		check(t, res, err)
	})

	t.Run("flush", func(t *testing.T) {
		st := buildStorage(t, g, 2)
		initWCC(t, st)
		e, err := NewEngine(st, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Frontier().ScheduleAll()
		// The first update of the second pass runs after its interval's
		// window was loaded, so the loss is met by the write-back.
		updates := 0
		res, err := e.Run(func(v core.VertexView) {
			if updates++; updates == g.N()+1 {
				removeValues(t, st)
			}
			minLabel(v)
		})
		check(t, res, err)
		if res.Iterations != 1 {
			t.Fatalf("failed run reported %+v, want the one completed pass", res)
		}
	})
}
