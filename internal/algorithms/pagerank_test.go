package algorithms

import (
	"math"
	"testing"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/metrics"
	"ndgraph/internal/sched"
)

func testGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPageRankDeterministicMatchesReference(t *testing.T) {
	g := testGraph(t, 21)
	pr := NewPageRank(1e-7)
	e, res, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := pr.Ranks(e)
	want := ReferencePageRank(g, pr.Damping, 1e-10, 10000)
	if d := metrics.LInfDistance(got, want); d > 1e-3 {
		t.Fatalf("LInf(engine, reference) = %v", d)
	}
}

func TestPageRankRanksPositive(t *testing.T) {
	g := testGraph(t, 22)
	pr := NewPageRank(1e-6)
	e, _, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range pr.Ranks(e) {
		if r < 0.15-1e-9 || math.IsNaN(r) {
			t.Fatalf("rank[%d] = %v", v, r)
		}
	}
}

// Theorem 1 end-to-end: PageRank converges nondeterministically and its
// result stays close to the deterministic fixed point.
func TestPageRankNondeterministicConverges(t *testing.T) {
	g := testGraph(t, 23)
	pr := NewPageRank(1e-6)
	det, _, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	want := pr.Ranks(det)
	for _, mode := range []edgedata.Mode{edgedata.ModeLocked, edgedata.ModeAligned, edgedata.ModeAtomic} {
		if mode == edgedata.ModeAligned && raceEnabled {
			continue
		}
		e, res, err := Run(pr, g, core.Options{
			Scheduler: sched.Nondeterministic, Threads: 4, Mode: mode, Amplify: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", mode)
		}
		got := pr.Ranks(e)
		// Local ε-convergence admits bounded run-to-run wobble; the
		// overall vectors must still be close.
		if d := metrics.LInfDistance(got, want); d > 0.05 {
			t.Fatalf("%v: LInf(nondet, det) = %v", mode, d)
		}
	}
}

func TestPageRankSynchronousConverges(t *testing.T) {
	g := testGraph(t, 24)
	pr := NewPageRank(1e-6)
	e, res, err := Run(pr, g, core.Options{Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("synchronous run did not converge (Theorem 1 premise)")
	}
	want := ReferencePageRank(g, pr.Damping, 1e-10, 10000)
	if d := metrics.LInfDistance(pr.Ranks(e), want); d > 1e-3 {
		t.Fatalf("LInf = %v", d)
	}
}

// Paper Section V-C: smaller ε pushes variation to less significant pages
// (larger difference degree) in deterministic reruns too (float noise is
// absent here, so deterministic reruns must be identical).
func TestPageRankDeterministicReproducible(t *testing.T) {
	g := testGraph(t, 25)
	pr := NewPageRank(1e-5)
	var first []uint32
	for run := 0; run < 3; run++ {
		e, _, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
		if err != nil {
			t.Fatal(err)
		}
		order := metrics.RankOrder(pr.Ranks(e))
		if first == nil {
			first = order
			continue
		}
		if dd := metrics.DifferenceDegree(first, order); dd != len(first) {
			t.Fatalf("deterministic reruns diverge at rank %d", dd)
		}
	}
}

func TestPageRankConflictProfileIsRWOnly(t *testing.T) {
	g := testGraph(t, 26)
	profile, verdict, err := Probe(NewPageRank(1e-6), g)
	if err != nil {
		t.Fatal(err)
	}
	if profile.WW != 0 {
		t.Fatalf("PageRank produced WW conflicts: %+v", profile)
	}
	if profile.RW == 0 {
		t.Fatalf("PageRank produced no RW conflicts: %+v", profile)
	}
	if !verdict.Eligible || verdict.Theorem != 1 {
		t.Fatalf("verdict = %+v", verdict)
	}
	if verdict.DeterministicResults {
		t.Fatal("approximate-convergence PageRank flagged as reproducing results")
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g, err := graph.Build(nil, graph.Options{NumVertices: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank(1e-6)
	e, res, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("edgeless graph did not converge")
	}
	for _, r := range pr.Ranks(e) {
		if math.Abs(r-0.15) > 1e-12 {
			t.Fatalf("isolated vertex rank = %v, want 0.15", r)
		}
	}
}

func TestPageRankDanglingVertices(t *testing.T) {
	// Star out of 0: vertex 0 has out-edges, spokes are dangling.
	es := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}
	g, err := graph.Build(es, graph.Options{NumVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank(1e-9)
	e, res, err := Run(pr, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	ranks := pr.Ranks(e)
	// Vertex 0 has no in-edges: rank = 0.15. Spokes: 0.15 + 0.85*(0.15/2).
	if math.Abs(ranks[0]-0.15) > 1e-6 {
		t.Fatalf("rank[0] = %v", ranks[0])
	}
	wantSpoke := 0.15 + 0.85*0.075
	if math.Abs(ranks[1]-wantSpoke) > 1e-6 || math.Abs(ranks[2]-wantSpoke) > 1e-6 {
		t.Fatalf("spoke ranks = %v, want %v", ranks[1:], wantSpoke)
	}
}

// Smaller ε must not converge in fewer iterations than a larger ε on the
// same deterministic schedule.
func TestPageRankEpsilonMonotonicIterations(t *testing.T) {
	g := testGraph(t, 27)
	loose := NewPageRank(1e-2)
	tight := NewPageRank(1e-8)
	_, resLoose, err := Run(loose, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	_, resTight, err := Run(tight, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Updates < resLoose.Updates {
		t.Fatalf("tight ε did fewer updates (%d) than loose ε (%d)", resTight.Updates, resLoose.Updates)
	}
}
