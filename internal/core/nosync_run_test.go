package core_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/metrics"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// runNoSync runs a to quiescence under the NoSync scheduler; algorithms.Run
// admits it through NoSyncVerdict.
func runNoSync(t *testing.T, a algorithms.Algorithm, g *graph.Graph, opts core.Options) (*core.Engine, core.Result) {
	t.Helper()
	opts.Scheduler = sched.NoSync
	if opts.Mode == edgedata.ModeSequential {
		opts.Mode = edgedata.ModeAtomic
	}
	e, res, err := algorithms.Run(a, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, res
}

// NewEngine refuses a NoSync engine without a Theorem-1/2 verdict, and
// refuses every option that needs an iteration barrier, naming it — of a
// fault plan, only the iteration-boundary crash; a NoSync engine refuses
// to restore a checkpoint or replay a trace.
func TestNoSyncRefusals(t *testing.T) {
	g, _ := gen.Ring(8)
	ok := &eligibility.Verdict{Eligible: true, Theorem: 2, Source: "test"}
	coloring, err := algorithms.NoSyncVerdict(algorithms.NewColoring(), g)
	if err != nil {
		t.Fatal(err)
	}
	if coloring.Eligible {
		t.Fatal("static advisor marked coloring eligible")
	}
	crashing, err := fault.NewInjector(fault.Plan{CrashIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	commits := trace.NewRecorder(16)
	commits.EnableCommits(16, g.M())
	sampling := obs.New(obs.Options{SampleConflicts: true})
	defer sampling.Close()
	for _, c := range []struct {
		name string
		set  func(*core.Options)
		want string
	}{
		{"nil verdict", func(o *core.Options) { o.Verdict = nil }, "requires an eligibility verdict"},
		{"ineligible verdict", func(o *core.Options) {
			o.Verdict = &eligibility.Verdict{Eligible: false, Reasons: []string{"not monotonic"}}
		}, "not monotonic"},
		{"theorem-less verdict", func(o *core.Options) { o.Verdict = &eligibility.Verdict{Eligible: true} }, "no known theorem"},
		// Coloring has write-write conflicts and is not monotone: the
		// static advisor refuses it end to end.
		{"coloring", func(o *core.Options) { o.Verdict = &coloring }, "NOT ELIGIBLE"},
		{"Inject with CrashIter", func(o *core.Options) { o.Inject = crashing }, "CrashIter"},
		{"CheckpointEvery", func(o *core.Options) {
			o.CheckpointEvery, o.CheckpointPath = 1, filepath.Join(t.TempDir(), "ckpt")
		}, "CheckpointEvery"},
		{"StallWindow", func(o *core.Options) { o.StallWindow = 3 }, "StallWindow"},
		{"EnableCensus", func(o *core.Options) { o.EnableCensus = true }, "EnableCensus"},
		{"PotentialCensus", func(o *core.Options) { o.PotentialCensus = true }, "PotentialCensus"},
		{"SampleConflicts", func(o *core.Options) { o.Observer = sampling }, "SampleConflicts"},
		{"Amplify", func(o *core.Options) { o.Amplify = true }, "Amplify"},
		{"Dispatch: Dynamic", func(o *core.Options) { o.Dispatch = sched.Dynamic }, "Dispatch: Dynamic"},
		{"OnEdgeWrite", func(o *core.Options) { o.OnEdgeWrite = func(uint32, uint64, uint64) {} }, "OnEdgeWrite"},
		{"commit-log Trace", func(o *core.Options) { o.Trace = commits }, "commit-log Trace"},
	} {
		opts := core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: ok}
		c.set(&opts)
		e, err := core.NewEngine(g, opts)
		if err == nil {
			e.Close()
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refusal %q does not name %q", c.name, err, c.want)
		}
	}

	inj, err := fault.NewInjector(fault.Plan{Seed: 1, DropWrite: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := core.NewEngine(g, core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: ok,
		Inject: inj})
	if err != nil {
		t.Errorf("Inject without CrashIter refused: %v", err)
	} else {
		faulty.Close()
	}

	e, err := core.NewEngine(g, core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: ok})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RestoreCheckpoint(filepath.Join(t.TempDir(), "ckpt")); err == nil || !strings.Contains(err.Error(), "RestoreCheckpoint") {
		t.Errorf("RestoreCheckpoint on a nosync engine: err = %v", err)
	}
	if _, err := e.ReplayTrace(&trace.Trace{}, algorithms.NewWCC().Update); err == nil || !strings.Contains(err.Error(), "ReplayTrace") {
		t.Errorf("ReplayTrace on a nosync engine: err = %v", err)
	}
}

// The structural refusals hold under NoSync with a valid verdict: a nil
// graph, and several workers sharing the sequential edge-data mode.
func TestNoSyncNewEngineValidation(t *testing.T) {
	g, _ := gen.Ring(4)
	ok := &eligibility.Verdict{Eligible: true, Theorem: 2, Source: "test"}
	if _, err := core.NewEngine(nil, core.Options{Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Verdict: ok}); err == nil {
		t.Error("nil graph accepted")
	}
	e, err := core.NewEngine(g, core.Options{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeSequential, Verdict: ok})
	if err == nil {
		e.Close()
		t.Error("multi-worker sequential mode accepted")
	} else if !strings.Contains(err.Error(), "concurrent edge-data mode") {
		t.Errorf("refusal %q does not name the concurrent edge-data mode", err)
	}
}

// The engine records one trace event per executed update, tagged with the
// executing worker.
func TestNoSyncTraceRecordsUpdates(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 18)
	_, res := runNoSync(t, algorithms.NewWCC(), g, core.Options{Threads: 4, Trace: rec})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if rec.Total() != res.Updates {
		t.Fatalf("trace recorded %d events for %d updates", rec.Total(), res.Updates)
	}
	// Worker ids must be valid; whether more than one worker got work
	// before the run drained is timing-dependent, so it is not asserted.
	for _, ev := range rec.Events() {
		if int(ev.Vertex) >= g.N() {
			t.Fatalf("event names vertex %d outside the graph", ev.Vertex)
		}
		if ev.Worker < 0 || ev.Worker >= 4 {
			t.Fatalf("event carries worker %d outside the pool", ev.Worker)
		}
	}
}

func TestNoSyncPageRankCloseToFixedPoint(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 73)
	if err != nil {
		t.Fatal(err)
	}
	pr := algorithms.NewPageRank(1e-6)
	want := algorithms.ReferencePageRank(g, pr.Damping, 1e-10, 10000)
	e, res := runNoSync(t, pr, g, core.Options{Threads: 4})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if d := metrics.LInfDistance(pr.Ranks(e), want); d > 0.05 {
		t.Fatalf("LInf = %v", d)
	}
}

func TestNoSyncWCCIdenticalToReference(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 71)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	want := algorithms.ReferenceWCC(g)
	for _, threads := range []int{1, 4, 8} {
		e, res := runNoSync(t, wcc, g, core.Options{Threads: threads})
		if !res.Converged {
			t.Fatalf("threads=%d: did not converge", threads)
		}
		for v := range want {
			if uint32(e.Vertices[v]) != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, want %d", threads, v, e.Vertices[v], want[v])
			}
		}
	}
}

func TestNoSyncBFSIdenticalToReference(t *testing.T) {
	g, err := gen.Grid(8, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := algorithms.NewBFS(g, 0)
	e, res := runNoSync(t, b, g, core.Options{Threads: 4})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	dist := b.Distances(e)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if got := dist[r*8+c]; got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestNoSyncSSSPMatchesDijkstra(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 72)
	if err != nil {
		t.Fatal(err)
	}
	s := algorithms.NewSSSP(g, 1, 9)
	want := algorithms.ReferenceSSSP(g, 1, s.Weights)
	e, res := runNoSync(t, s, g, core.Options{Threads: 4})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v, got := range s.Distances(e) {
		if got != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

// NoSync caps a run at MaxIters × |V| updates; hitting the cap ends it
// unconverged with a nil error. The graph is a star whose hub has the
// largest label, so every spoke that runs before the hub has learnt label 0
// must run again: converging takes about 2|V| updates, twice the cap. One
// worker claims the seeds in ascending order, so the hub runs last and the
// serial run reaches the cap on every schedule; two workers race for it.
func TestNoSyncUpdateCap(t *testing.T) {
	const n = 100
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(0); v < n-1; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: n - 1})
	}
	g, err := graph.Build(edges, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			_, res := runNoSync(t, algorithms.NewWCC(), g, core.Options{Threads: threads, MaxIters: 1})
			if res.Converged {
				t.Fatal("capped run reported convergence")
			}
			if res.Updates > n {
				t.Fatalf("Updates = %d beyond the cap of %d", res.Updates, n)
			}
		})
	}
}

// TestNoSyncMonotonicity pins Theorem 2's premise on the scheduler itself:
// under concurrent barrier-free execution of WCC, every committed vertex
// value only improves under the kernel's Better relation (labels strictly
// decrease or stay). A violation would mean an update read torn or
// resurrected state and committed a regression.
func TestNoSyncMonotonicity(t *testing.T) {
	g, err := gen.RMAT(500, 3000, gen.DefaultRMAT, 75)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	better := func(c, cur uint64) bool { return c < cur } // WCC's merge: min-label
	var violations atomic.Int64
	wrapped := func(c core.VertexView) {
		before := c.Vertex()
		wcc.Update(c)
		after := c.Vertex()
		if after != before && !better(after, before) {
			violations.Add(1)
		}
	}
	v, err := algorithms.NoSyncVerdict(wcc, g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(g, core.Options{Scheduler: sched.NoSync, Threads: 8, Mode: edgedata.ModeAtomic, Verdict: &v})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wcc.Setup(e)
	res, err := e.Run(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d committed values regressed under Better", n)
	}
	want := algorithms.ReferenceWCC(g)
	for u := range want {
		if uint32(e.Vertices[u]) != want[u] {
			t.Fatalf("vertex %d = %d, want %d", u, e.Vertices[u], want[u])
		}
	}
}
