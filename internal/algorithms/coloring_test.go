package algorithms

import (
	"fmt"
	"strings"
	"testing"

	"ndgraph/internal/core"
	"ndgraph/internal/gen"
	"ndgraph/internal/sched"
)

func TestColoringDeterministicValid(t *testing.T) {
	g := testGraph(t, 61)
	c := NewColoring()
	e, res, err := Run(c, g, core.Options{Scheduler: sched.Deterministic, MaxIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("deterministic coloring did not converge")
	}
	if !ValidColoring(g, c.ColorsOf(e)) {
		t.Fatal("deterministic coloring invalid")
	}
}

func TestColoringRing(t *testing.T) {
	g, err := gen.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	c := NewColoring()
	e, res, err := Run(c, g, core.Options{Scheduler: sched.Deterministic, MaxIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	colors := c.ColorsOf(e)
	if !ValidColoring(g, colors) {
		t.Fatalf("invalid ring coloring: %v", colors)
	}
	max := uint32(0)
	for _, col := range colors {
		if col > max {
			max = col
		}
	}
	if max > 2 {
		t.Fatalf("ring used color %d, greedy should need <= 2 (0..2 on odd cycles)", max)
	}
}

// The advisor must reject coloring: WW conflicts + non-monotone.
func TestColoringNotEligible(t *testing.T) {
	g := testGraph(t, 62)
	profile, verdict, err := Probe(NewColoring(), g)
	if err != nil {
		t.Fatal(err)
	}
	if profile.WW == 0 {
		t.Fatalf("coloring produced no WW conflicts: %+v", profile)
	}
	if verdict.Eligible {
		t.Fatalf("coloring declared eligible: %+v", verdict)
	}
}

func TestValidColoringRejects(t *testing.T) {
	g, err := gen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	if ValidColoring(g, []uint32{0, 0, 1}) {
		t.Fatal("adjacent same colors accepted")
	}
	if ValidColoring(g, []uint32{0, 1}) {
		t.Fatal("short slice accepted")
	}
	if ValidColoring(g, []uint32{0, 1, noColor}) {
		t.Fatal("uncolored vertex accepted")
	}
	if !ValidColoring(g, []uint32{0, 1, 0}) {
		t.Fatal("proper coloring rejected")
	}
}

func TestAllAlgorithmNames(t *testing.T) {
	g := testGraph(t, 63)
	for _, a := range []Algorithm{
		NewPageRank(1e-4), NewWCC(), NewSSSP(g, 0, 1), NewBFS(g, 0),
		NewSpMV(g, 1e-4, 0.5, 1), NewColoring(),
	} {
		if a.Name() == "" {
			t.Fatalf("%T has empty name", a)
		}
		if a.Properties().Name != a.Name() {
			t.Fatalf("%T: Properties().Name %q != Name() %q", a, a.Properties().Name, a.Name())
		}
	}
}

func TestRunPropagatesEngineErrors(t *testing.T) {
	g := testGraph(t, 64)
	_, _, err := Run(NewWCC(), g, core.Options{
		Scheduler: sched.Nondeterministic, Threads: 4, Mode: 0, // ModeSequential
	})
	if err == nil {
		t.Fatal("invalid engine options accepted")
	}
}

// New builds every registered name, and refuses an unknown name and a
// traversal source outside the graph, naming the source and |V|.
func TestNew(t *testing.T) {
	g := testGraph(t, 63)
	n := uint32(g.N())
	for _, tc := range []struct {
		name    string
		source  uint32
		wantErr string // "" = must build an algorithm of that name
	}{
		{"pagerank", 0, ""},
		{"wcc", n, ""}, // source is ignored outside the traversals
		{"sssp", n - 1, ""},
		{"bfs", 0, ""},
		{"spmv", 0, ""},
		{"kcore", 0, ""},
		{"labelprop", 0, ""},
		{"coloring", 0, ""},
		{"bogus", 0, `unknown algorithm "bogus"`},
		{"sssp", n, fmt.Sprintf("sssp source %d is not a vertex of a %d-vertex graph", n, n)},
		{"bfs", 4000000000, fmt.Sprintf("bfs source 4000000000 is not a vertex of a %d-vertex graph", n)},
		{"sssp", ^uint32(0), fmt.Sprintf("sssp source 4294967295 is not a vertex of a %d-vertex graph", n)},
	} {
		a, err := New(tc.name, g, tc.source, 1e-4, 1)
		if tc.wantErr == "" {
			if err != nil || a.Name() != tc.name {
				t.Errorf("New(%q, source %d) = %v, %v", tc.name, tc.source, a, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("New(%q, source %d) error = %v, want %q", tc.name, tc.source, err, tc.wantErr)
		}
	}
}
