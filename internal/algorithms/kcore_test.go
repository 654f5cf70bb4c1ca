package algorithms

import (
	"testing"
	"testing/quick"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
)

func TestKCoreDeterministicMatchesPeeling(t *testing.T) {
	g := testGraph(t, 101)
	kc := NewKCore()
	e, res, err := Run(kc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := kc.CoreNumbers(e)
	want := ReferenceKCore(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d] = %d, peeling says %d", v, got[v], want[v])
		}
	}
}

func TestKCoreCompleteGraph(t *testing.T) {
	// Complete directed graph on n vertices: every vertex has degree
	// 2(n-1), and the (multigraph) core number is 2(n-1).
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKCore()
	e, _, err := Run(kc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range kc.CoreNumbers(e) {
		if c != 10 {
			t.Fatalf("core[%d] = %d, want 10", v, c)
		}
	}
}

func TestKCoreChain(t *testing.T) {
	g, err := gen.Chain(10)
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKCore()
	e, _, err := Run(kc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	// A path's core number is 1 everywhere.
	for v, c := range kc.CoreNumbers(e) {
		if c != 1 {
			t.Fatalf("core[%d] = %d, want 1", v, c)
		}
	}
}

func TestKCoreIsolatedVertex(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.Options{NumVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKCore()
	e, _, err := Run(kc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	cores := kc.CoreNumbers(e)
	if cores[2] != 0 {
		t.Fatalf("isolated core = %d", cores[2])
	}
	if cores[0] != 1 || cores[1] != 1 {
		t.Fatalf("pair cores = %v", cores[:2])
	}
}

// Theorem 2 (extended): k-core is monotone with write-write conflicts;
// nondeterministic execution must converge to the same core numbers.
func TestKCoreNondeterministicIdentical(t *testing.T) {
	g := testGraph(t, 102)
	kc := NewKCore()
	want := ReferenceKCore(g)
	for _, opts := range []core.Options{
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true},
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeLocked},
		{Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.DIG, Threads: 2, Mode: edgedata.ModeAtomic},
		// Run admits NoSync through k-core's certificate.
		{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic},
	} {
		e, res, err := Run(kc, g, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Scheduler, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", opts.Scheduler)
		}
		got := kc.CoreNumbers(e)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v/%v: core[%d] = %d, want %d", opts.Scheduler, opts.Mode, v, got[v], want[v])
			}
		}
	}
}

func TestKCoreConflictProfileHasWW(t *testing.T) {
	g := testGraph(t, 103)
	profile, verdict, err := Probe(NewKCore(), g)
	if err != nil {
		t.Fatal(err)
	}
	if profile.WW == 0 {
		t.Fatalf("k-core produced no WW conflicts: %+v", profile)
	}
	if !verdict.Eligible || verdict.Theorem != 2 {
		t.Fatalf("verdict = %+v", verdict)
	}
}

func TestHOperator(t *testing.T) {
	cases := []struct {
		in   []uint32
		want uint32
	}{
		{nil, 0},
		{[]uint32{0}, 0},
		{[]uint32{5}, 1},
		{[]uint32{1, 1, 1}, 1},
		{[]uint32{3, 3, 3}, 3},
		{[]uint32{5, 4, 3, 2, 1}, 3},
		{[]uint32{2, 2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		in := append([]uint32(nil), c.in...)
		if got := hOperator(in); got != c.want {
			t.Errorf("hOperator(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestKCoreQuickRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(60, 300, seed)
		if err != nil {
			return false
		}
		kc := NewKCore()
		e, res, err := Run(kc, g, core.Options{
			Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true,
		})
		if err != nil || !res.Converged {
			return false
		}
		got := kc.CoreNumbers(e)
		want := ReferenceKCore(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
