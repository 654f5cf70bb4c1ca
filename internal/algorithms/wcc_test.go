package algorithms

import (
	"testing"
	"testing/quick"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
	"ndgraph/internal/sched"
)

func TestWCCDeterministicMatchesUnionFind(t *testing.T) {
	g := testGraph(t, 31)
	wcc := NewWCC()
	e, res, err := Run(wcc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := wcc.Components(e)
	want := ReferenceWCC(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: engine label %d, union-find label %d", v, got[v], want[v])
		}
	}
}

// Theorem 2 end-to-end: WCC has write-write conflicts, is monotone, and
// must produce *bit-identical* final labels under every scheduler and
// atomicity mode — "their nondeterministic executions will produce the
// same final results as their deterministic executions".
func TestWCCNondeterministicIdenticalResults(t *testing.T) {
	g := testGraph(t, 32)
	wcc := NewWCC()
	want := ReferenceWCC(g)
	configs := []core.Options{
		{Scheduler: sched.Deterministic},
		{Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.DIG, Threads: 4, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true},
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeLocked, Amplify: true},
		// Run admits NoSync through WCC's certificate.
		{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic},
	}
	if !raceEnabled {
		configs = append(configs,
			core.Options{Scheduler: sched.Nondeterministic, Threads: 8, Mode: edgedata.ModeAligned, Amplify: true})
	}
	for _, opts := range configs {
		e, res, err := Run(wcc, g, opts)
		if err != nil {
			t.Fatalf("%v/%v: %v", opts.Scheduler, opts.Mode, err)
		}
		if !res.Converged {
			t.Fatalf("%v/%v: did not converge", opts.Scheduler, opts.Mode)
		}
		got := wcc.Components(e)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v/%v: vertex %d = %d, want %d",
					opts.Scheduler, opts.Mode, v, got[v], want[v])
			}
		}
	}
}

func TestWCCConflictProfileHasWW(t *testing.T) {
	g := testGraph(t, 33)
	profile, verdict, err := Probe(NewWCC(), g)
	if err != nil {
		t.Fatal(err)
	}
	if profile.WW == 0 {
		t.Fatalf("WCC produced no WW conflicts: %+v", profile)
	}
	if !verdict.Eligible || verdict.Theorem != 2 {
		t.Fatalf("verdict = %+v", verdict)
	}
	if !verdict.DeterministicResults {
		t.Fatal("monotone absolute WCC not flagged as result-reproducing")
	}
}

func TestWCCDisconnectedComponents(t *testing.T) {
	// Two rings and an isolated vertex: three components.
	es := []graph.Edge{}
	for i := 0; i < 4; i++ {
		es = append(es, graph.Edge{Src: uint32(i), Dst: uint32((i + 1) % 4)})
	}
	for i := 4; i < 7; i++ {
		next := i + 1
		if next == 7 {
			next = 4
		}
		es = append(es, graph.Edge{Src: uint32(i), Dst: uint32(next)})
	}
	g, err := graph.Build(es, graph.Options{NumVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	wcc := NewWCC()
	e, _, err := Run(wcc, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	labels := wcc.Components(e)
	if n := NumComponents(labels); n != 3 {
		t.Fatalf("components = %d, want 3 (labels %v)", n, labels)
	}
	if labels[0] != 0 || labels[4] != 4 || labels[7] != 7 {
		t.Fatalf("labels not component minima: %v", labels)
	}
}

// Fig. 2 of the paper: the two-vertex write-write example. With the race
// amplifier and many repetitions, nondeterministic execution must always
// recover the correct minimum label.
func TestWCCFig2WriteWriteRecovery(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.Options{NumVertices: 2})
	if err != nil {
		t.Fatal(err)
	}
	wcc := NewWCC()
	for trial := 0; trial < 200; trial++ {
		e, res, err := Run(wcc, g, core.Options{
			Scheduler: sched.Nondeterministic, Threads: 2,
			Mode: edgedata.ModeAtomic, Amplify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: did not converge", trial)
		}
		labels := wcc.Components(e)
		if labels[0] != 0 || labels[1] != 0 {
			t.Fatalf("trial %d: labels = %v, want [0 0]", trial, labels)
		}
	}
}

// Property: on random graphs, nondeterministic WCC equals union-find.
func TestWCCQuickRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := gen.ErdosRenyi(80, 120+r.Intn(200), seed)
		if err != nil {
			return false
		}
		wcc := NewWCC()
		e, res, err := Run(wcc, g, core.Options{
			Scheduler: sched.Nondeterministic, Threads: 4,
			Mode: edgedata.ModeAtomic, Amplify: true,
		})
		if err != nil || !res.Converged {
			return false
		}
		got := wcc.Components(e)
		want := ReferenceWCC(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNumComponents(t *testing.T) {
	if NumComponents(nil) != 0 {
		t.Fatal("empty labels")
	}
	if NumComponents([]uint32{3, 3, 3}) != 1 {
		t.Fatal("single component")
	}
	if NumComponents([]uint32{0, 1, 2}) != 3 {
		t.Fatal("distinct components")
	}
}
