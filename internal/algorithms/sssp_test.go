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

func TestSSSPDeterministicMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 41)
	s := NewSSSP(g, 0, 7)
	e, res, err := Run(s, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := s.Distances(e)
	want := ReferenceSSSP(g, 0, s.Weights)
	for v := range want {
		if got[v] != want[v] { // exact float equality: same sums, same mins
			t.Fatalf("vertex %d: engine %v, dijkstra %v", v, got[v], want[v])
		}
	}
}

// Theorem 1/2 end-to-end for SSSP: monotone with absolute convergence, so
// every scheduler must produce identical distances.
func TestSSSPIdenticalAcrossSchedulers(t *testing.T) {
	g := testGraph(t, 42)
	s := NewSSSP(g, 3, 11)
	want := ReferenceSSSP(g, 3, s.Weights)
	configs := []core.Options{
		{Scheduler: sched.Deterministic},
		{Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true},
		{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeLocked},
		{Scheduler: sched.DIG, Threads: 2, Mode: edgedata.ModeAtomic},
		// Run admits NoSync through SSSP's certificate.
		{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic},
	}
	if !raceEnabled {
		configs = append(configs,
			core.Options{Scheduler: sched.Nondeterministic, Threads: 8, Mode: edgedata.ModeAligned, Amplify: true})
	}
	for _, opts := range configs {
		e, res, err := Run(s, g, opts)
		if err != nil {
			t.Fatalf("%v/%v: %v", opts.Scheduler, opts.Mode, err)
		}
		if !res.Converged {
			t.Fatalf("%v/%v: did not converge", opts.Scheduler, opts.Mode)
		}
		got := s.Distances(e)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v/%v: dist[%d] = %v, want %v",
					opts.Scheduler, opts.Mode, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPUnreachableStaysInf(t *testing.T) {
	// 0→1, isolated 2.
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.Options{NumVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSSSP(g, 0, 1)
	e, _, err := Run(s, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Distances(e)
	if d[0] != 0 {
		t.Fatalf("source dist = %v", d[0])
	}
	if !math.IsInf(d[2], 1) {
		t.Fatalf("unreachable dist = %v, want +Inf", d[2])
	}
}

func TestSSSPConflictProfileRWOnly(t *testing.T) {
	g := testGraph(t, 43)
	profile, verdict, err := Probe(NewSSSP(g, 0, 5), g)
	if err != nil {
		t.Fatal(err)
	}
	if profile.WW != 0 {
		t.Fatalf("SSSP produced WW conflicts: %+v", profile)
	}
	if !verdict.Eligible {
		t.Fatalf("verdict = %+v", verdict)
	}
	if !verdict.DeterministicResults {
		t.Fatal("monotone absolute SSSP not flagged result-reproducing")
	}
}

func TestSSSPWeightsInPaperRange(t *testing.T) {
	g := testGraph(t, 44)
	s := NewSSSP(g, 0, 9)
	if len(s.Weights) != g.M() {
		t.Fatalf("weights len %d, edges %d", len(s.Weights), g.M())
	}
	for i, w := range s.Weights {
		if w < 1 || w > 100 || w != math.Trunc(w) {
			t.Fatalf("weight[%d] = %v, want integer in [1,100]", i, w)
		}
	}
}

func TestBFSIsUnitWeightSSSP(t *testing.T) {
	g := testGraph(t, 45)
	b := NewBFS(g, 0)
	if b.Name() != "bfs" {
		t.Fatalf("Name = %q", b.Name())
	}
	for _, w := range b.Weights {
		if w != 1 {
			t.Fatal("BFS weight != 1")
		}
	}
	e, res, err := Run(b, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := b.Distances(e)
	want := referenceBFS(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("hop[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// referenceBFS is a queue-based BFS oracle.
func referenceBFS(g *graph.Graph, source uint32) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	queue := []uint32{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if math.IsInf(dist[u], 1) {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func TestBFSOnGrid(t *testing.T) {
	g, err := gen.Grid(6, 7, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBFS(g, 0)
	e, _, err := Run(b, g, core.Options{
		Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := b.Distances(e)
	// Manhattan distance on a directed right/down grid.
	for r := 0; r < 6; r++ {
		for c := 0; c < 7; c++ {
			if got := d[r*7+c]; got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestIterationsSyncVsAsync(t *testing.T) {
	// On a chain with everything scheduled, the Gauss–Seidel deterministic
	// schedule collapses the whole path in one pass (ascending labels see
	// fresh upstream writes), while BSP needs one iteration per hop — the
	// paper's "asynchronous model reduces the number of iterations"
	// motivation. WCC schedules all vertices, so it exhibits the collapse;
	// single-source BFS does not (its frontier grows one hop per iteration
	// under every schedule).
	g, err := gen.Chain(64)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWCC()
	_, resDet, err := Run(w, g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	_, resSync, err := Run(w, g, core.Options{Scheduler: sched.Synchronous, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resDet.Iterations >= resSync.Iterations {
		t.Fatalf("det iterations (%d) not fewer than sync (%d)", resDet.Iterations, resSync.Iterations)
	}
}

func TestSSSPSeedsGiveDifferentWeights(t *testing.T) {
	g := testGraph(t, 46)
	a, b := NewSSSP(g, 0, 1), NewSSSP(g, 0, 2)
	if metrics.L1Distance(a.Weights, b.Weights) == 0 {
		t.Fatal("different seeds, identical weights")
	}
	c := NewSSSP(g, 0, 1)
	if metrics.L1Distance(a.Weights, c.Weights) != 0 {
		t.Fatal("same seed, different weights")
	}
}
