// Facade tests: exercise the public ndgraph API end-to-end, exactly as a
// downstream user would.
package ndgraph_test

import (
	"math"
	"testing"

	"ndgraph"
)

func TestFacadeGenerators(t *testing.T) {
	g, err := ndgraph.GenRMAT(256, 1500, ndgraph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 256 {
		t.Fatalf("N = %d", g.N())
	}
	pa, err := ndgraph.GenPreferentialAttachment(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pa.ComputeStats().MaxInDeg < 3 {
		t.Fatal("preferential attachment produced no hubs")
	}
}

func TestFacadeBuildAndRun(t *testing.T) {
	edges := []ndgraph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	g, err := ndgraph.BuildGraph(edges, ndgraph.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wcc := ndgraph.NewWCC()
	eng, res, err := ndgraph.Run(wcc, g, ndgraph.Options{
		Scheduler: ndgraph.Nondeterministic,
		Threads:   2,
		Mode:      ndgraph.ModeAtomic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	labels := wcc.Components(eng)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %d", v, l)
		}
	}
}

func TestFacadeProbeAndAdvise(t *testing.T) {
	g, err := ndgraph.Synthesize(ndgraph.WebGoogle, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, verdict, err := ndgraph.Probe(ndgraph.NewWCC(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Eligible || verdict.Theorem != 2 {
		t.Fatalf("verdict = %+v", verdict)
	}
	// Direct Advise usage.
	v := ndgraph.Advise(ndgraph.Properties{
		Name: "custom", ConvergesSynchronously: true,
	}, ndgraph.ConflictProfile{RW: 10})
	if !v.Eligible || v.Theorem != 1 {
		t.Fatalf("Advise = %+v", v)
	}
}

func TestFacadePageRankMetrics(t *testing.T) {
	g, err := ndgraph.Synthesize(ndgraph.WebGoogle, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr := ndgraph.NewPageRank(1e-3)
	eng, _, err := ndgraph.Run(pr, g, ndgraph.Options{Scheduler: ndgraph.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	ranks := pr.Ranks(eng)
	order := ndgraph.RankOrder(ranks)
	if len(order) != g.N() {
		t.Fatalf("order length %d", len(order))
	}
	if ndgraph.DifferenceDegree(order, order) != len(order) {
		t.Fatal("self difference degree should be the full length")
	}
}

func TestFacadeCustomUpdateFunc(t *testing.T) {
	// A user-written algorithm against the raw engine API: count each
	// vertex's in-degree by propagating ones along edges.
	g, err := ndgraph.BuildGraph([]ndgraph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}, ndgraph.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ndgraph.NewEngine(g, ndgraph.Options{Scheduler: ndgraph.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	eng.Frontier().ScheduleAll()
	update := func(ctx ndgraph.VertexView) {
		var sum uint64
		for _, w := range ctx.InEdgeVals() {
			sum += w
		}
		ctx.SetVertex(sum)
		for k, w := range ctx.OutEdgeVals() {
			if w != 1 {
				ctx.SetOutEdgeVal(k, 1)
			}
		}
	}
	res, err := eng.Run(update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if eng.Vertices[2] != 2 {
		t.Fatalf("vertex 2 counted %d in-edges", eng.Vertices[2])
	}
}

func TestFacadePushAndAsync(t *testing.T) {
	g, err := ndgraph.GenGrid(8, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, res, err := ndgraph.PushBFS(g, 0, ndgraph.PushModeCAS, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("push BFS did not converge")
	}
	if dist[63] != 14 {
		t.Fatalf("corner distance = %v", dist[63])
	}
	// The result's accounting is the hybrid engine's: on a 10-vertex chain
	// each of the 9 edges wins exactly once, one frontier vertex per
	// iteration (9 hops + the sink's empty relaxation).
	var chain []ndgraph.Edge
	for v := uint32(0); v < 9; v++ {
		chain = append(chain, ndgraph.Edge{Src: v, Dst: v + 1})
	}
	cg, err := ndgraph.BuildGraph(chain, ndgraph.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unit := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	cdist, cres, err := ndgraph.PushSSSP(cg, 0, unit, ndgraph.PushModeCAS, 1)
	if err != nil || !cres.Converged || cdist[9] != 9 {
		t.Fatalf("push SSSP on a chain: dist[9] = %v, %+v, %v", cdist[9], cres, err)
	}
	if cres.Wins != 9 || cres.Pushes < cres.Wins || cres.Iterations != 10 || cres.Duration <= 0 {
		t.Fatalf("push accounting %+v, want 9 wins in 10 iterations", cres)
	}
	if labels, wres, err := ndgraph.PushWCC(cg, ndgraph.PushModeCAS, 2); err != nil || !wres.Converged || labels[9] != 0 {
		t.Fatalf("push WCC on a chain: label[9] = %d, %+v, %v", labels[9], wres, err)
	}
	// Async executor via LoadFrom.
	bfs := ndgraph.NewBFS(g, 0)
	seedEng, err := ndgraph.NewEngine(g, ndgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bfs.Setup(seedEng)
	x, err := ndgraph.NewAsyncExecutor(g, ndgraph.AsyncOptions{Threads: 2, Mode: ndgraph.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.LoadFrom(seedEng); err != nil {
		t.Fatal(err)
	}
	ares, err := x.Run(bfs.Update)
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Converged {
		t.Fatal("async BFS did not converge")
	}
	if math.Float64frombits(x.Vertices[63]) != 14 {
		t.Fatalf("async corner distance = %v", math.Float64frombits(x.Vertices[63]))
	}
}

func TestFacadeGraphIO(t *testing.T) {
	dir := t.TempDir()
	g, err := ndgraph.GenErdosRenyi(50, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/g.bin"
	if err := ndgraph.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ndgraph.LoadGraph(path, ndgraph.GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip size mismatch")
	}
}
