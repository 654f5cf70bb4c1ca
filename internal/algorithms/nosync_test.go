package algorithms

import (
	"testing"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/gen"
	"ndgraph/internal/sched"
)

func TestNoSyncVerdictStaticRoutes(t *testing.T) {
	g, _ := gen.Ring(16)
	cases := []struct {
		a        Algorithm
		eligible bool
		theorem  int
	}{
		{NewWCC(), true, 2},
		{NewBFS(g, 0), true, 1},
		{NewPageRank(1e-4), true, 1},
		{NewColoring(), false, 0},
	}
	for _, c := range cases {
		v, err := NoSyncVerdict(c.a, g)
		if err != nil {
			t.Fatalf("%s: %v", c.a.Name(), err)
		}
		if v.Eligible != c.eligible || v.Theorem != c.theorem {
			t.Errorf("%s: verdict = eligible=%v theorem=%d, want %v/%d",
				c.a.Name(), v.Eligible, v.Theorem, c.eligible, c.theorem)
		}
		if v.Source != "cert" {
			t.Errorf("%s: source = %q, want cert (built-in algorithm)", c.a.Name(), v.Source)
		}
	}
}

// unregistered wraps WCC under a name outside the certificate registry.
// It embeds a built-in, but its concrete type is not one, so
// NoSyncVerdict must take the probe path.
type unregistered struct{ *WCC }

func (*unregistered) Name() string { return "wcc-unregistered" }

func (u *unregistered) Properties() eligibility.Properties {
	p := u.WCC.Properties()
	p.Name = "wcc-unregistered"
	return p
}

func TestNoSyncVerdictProbeFallback(t *testing.T) {
	g, err := gen.RMAT(120, 700, gen.DefaultRMAT, 81)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NoSyncVerdict(&unregistered{NewWCC()}, g)
	if err != nil {
		t.Fatal(err)
	}
	if v.Source != "probe" {
		t.Fatalf("source = %q, want probe (unregistered algorithm)", v.Source)
	}
	if !v.Eligible || v.Theorem != 2 {
		t.Fatalf("probe verdict = %+v, want Theorem 2 eligible", v)
	}
}

// impostor runs Coloring's update — write-write conflicts, not monotone —
// under PageRank's name and declared Properties. Admission that went by
// Name() would hand it PageRank's certificate and run it barrier-free.
type impostor struct{ *Coloring }

func (*impostor) Name() string { return "pagerank" }

func (*impostor) Properties() eligibility.Properties { return NewPageRank(1e-4).Properties() }

func TestNoSyncVerdictRefusesImpostor(t *testing.T) {
	g, err := gen.RMAT(120, 700, gen.DefaultRMAT, 81)
	if err != nil {
		t.Fatal(err)
	}
	a := &impostor{NewColoring()}
	v, err := NoSyncVerdict(a, g)
	if err != nil {
		t.Fatal(err)
	}
	if v.Source != "probe" || v.Eligible {
		t.Fatalf("impostor verdict = %v, want a NOT ELIGIBLE probe verdict", v)
	}
	if _, err := core.NewEngine(g, core.Options{
		Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: &v,
	}); err == nil {
		t.Fatal("NoSync scheduler admitted Coloring's update under PageRank's name")
	}
	// Run derives the same verdict itself when none is given.
	if _, _, err := Run(a, g, core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic}); err == nil {
		t.Fatal("Run admitted Coloring's update under PageRank's name")
	}
}

var (
	_ Algorithm = (*unregistered)(nil)
	_ Algorithm = (*impostor)(nil)
)
