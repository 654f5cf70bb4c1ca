package async

import (
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/metrics"
	"ndgraph/internal/trace"
)

// The structural refusals hold for both constructors; NewUnadmitted is the
// one that needs no verdict.
func TestNewExecutorValidation(t *testing.T) {
	g, _ := gen.Ring(4)
	for name, build := range map[string]func(*graph.Graph, NoSyncOptions) (*NoSync, error){
		"NewNoSync": NewNoSync, "NewUnadmitted": NewUnadmitted,
	} {
		if _, err := build(nil, NoSyncOptions{Verdict: testVerdict()}); err == nil {
			t.Errorf("%s: nil graph accepted", name)
		}
		if _, err := build(g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeSequential, Verdict: testVerdict()}); err == nil {
			t.Errorf("%s: multi-worker sequential mode accepted", name)
		}
	}
	x, err := NewUnadmitted(g, NoSyncOptions{Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatalf("NewUnadmitted refused a run without a verdict: %v", err)
	}
	x.Close()
}

func TestRunNilUpdate(t *testing.T) {
	g, _ := gen.Ring(4)
	x, err := NewNoSync(g, NoSyncOptions{Threads: 1, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if _, err := x.Run(nil); err == nil {
		t.Fatal("nil update accepted")
	}
}

func TestLoadFromRejectsOtherGraph(t *testing.T) {
	g1, _ := gen.Ring(4)
	g2, _ := gen.Ring(4)
	e, err := core.NewEngine(g1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewNoSync(g2, NoSyncOptions{Threads: 1, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(e); err == nil {
		t.Fatal("cross-graph LoadFrom accepted")
	}
}

func TestSeedAPI(t *testing.T) {
	g, _ := gen.Chain(3)
	x, err := NewNoSync(g, NoSyncOptions{Threads: 1, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Min-label over a chain seeded at vertex 0 only.
	for v := range x.Vertices {
		x.Vertices[v] = uint64(v)
	}
	x.Edges.Fill(^uint64(0))
	x.Seed(0)
	update := func(ctx core.VertexView) {
		min := ctx.Vertex()
		for k := 0; k < ctx.InDegree(); k++ {
			if w := ctx.InEdgeVal(k); w < min {
				min = w
			}
		}
		ctx.SetVertex(min)
		for k := 0; k < ctx.OutDegree(); k++ {
			if ctx.OutEdgeVal(k) > min {
				ctx.SetOutEdgeVal(k, min)
			}
		}
	}
	res, err := x.Run(update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v, w := range x.Vertices {
		if w != 0 {
			t.Fatalf("vertex %d = %d", v, w)
		}
	}
}

// The executor records one trace event per executed update, tagged with
// the executing worker.
func TestAsyncTraceRecordsUpdates(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 18)
	_, res := runNoSync(t, algorithms.NewWCC(), g, NoSyncOptions{
		Threads: 4, Mode: edgedata.ModeAtomic, Trace: rec,
	})
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

func TestAsyncPageRankCloseToFixedPoint(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 73)
	if err != nil {
		t.Fatal(err)
	}
	pr := algorithms.NewPageRank(1e-6)
	want := algorithms.ReferencePageRank(g, pr.Damping, 1e-10, 10000)
	x, res := runNoSync(t, pr, g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	got := make([]float64, g.N())
	for v := range got {
		got[v] = edgedata.ToFloat64(x.Vertices[v])
	}
	if d := metrics.LInfDistance(got, want); d > 0.05 {
		t.Fatalf("LInf = %v", d)
	}
}

// runUnadmitted is runNoSync without the admission ticket: it drains the
// executor through NewUnadmitted, the constructor behind the facade's
// AsyncExecutor and the benchmark's async-chan contender row. The tests
// below hold that row to the answers the channel executor gave.
func runUnadmitted(t *testing.T, a algorithms.Algorithm, g *graph.Graph, opts NoSyncOptions) (*NoSync, NoSyncResult) {
	t.Helper()
	e, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Setup(e)
	x, err := NewUnadmitted(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	if err := x.LoadFrom(e); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(a.Update)
	if err != nil {
		t.Fatal(err)
	}
	return x, res
}

func TestEmptySeedsConverges(t *testing.T) {
	g, _ := gen.Ring(4)
	x, err := NewUnadmitted(g, NoSyncOptions{Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	res, err := x.Run(func(core.VertexView) {})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Updates != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestAsyncWCCIdenticalToReference(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 71)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	want := algorithms.ReferenceWCC(g)
	for _, threads := range []int{1, 4, 8} {
		x, res := runUnadmitted(t, wcc, g, NoSyncOptions{Threads: threads, Mode: edgedata.ModeAtomic})
		if !res.Converged {
			t.Fatalf("threads=%d: did not converge", threads)
		}
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, want %d", threads, v, x.Vertices[v], want[v])
			}
		}
	}
}

func TestAsyncBFSIdenticalToReference(t *testing.T) {
	g, err := gen.Grid(8, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := algorithms.NewBFS(g, 0)
	x, res := runUnadmitted(t, b, g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			got := edgedata.ToFloat64(x.Vertices[r*8+c])
			if got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestAsyncSSSPMatchesDijkstra(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 72)
	if err != nil {
		t.Fatal(err)
	}
	s := algorithms.NewSSSP(g, 1, 9)
	want := algorithms.ReferenceSSSP(g, 1, s.Weights)
	x, res := runUnadmitted(t, s, g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v := range want {
		if got := edgedata.ToFloat64(x.Vertices[v]); got != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestMaxUpdatesCap(t *testing.T) {
	g, err := gen.Ring(100)
	if err != nil {
		t.Fatal(err)
	}
	_, res := runUnadmitted(t, algorithms.NewWCC(), g, NoSyncOptions{Threads: 2, Mode: edgedata.ModeAtomic, MaxUpdates: 10})
	if res.Converged {
		t.Fatal("capped run reported convergence")
	}
	if res.Updates > 10 {
		t.Fatalf("Updates = %d beyond cap", res.Updates)
	}
}
