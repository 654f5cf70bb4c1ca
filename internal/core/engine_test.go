package core

import (
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// minLabelUpdate is a miniature WCC-style monotone update used throughout
// the engine tests: vertex value = min(own value, incident edge values);
// edges that exceed the minimum are lowered to it.
func minLabelUpdate(ctx VertexView) {
	min := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if v := ctx.InEdgeVal(k); v < min {
			min = v
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if v := ctx.OutEdgeVal(k); v < min {
			min = v
		}
	}
	ctx.SetVertex(min)
	for k := 0; k < ctx.InDegree(); k++ {
		if ctx.InEdgeVal(k) > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if ctx.OutEdgeVal(k) > min {
			ctx.SetOutEdgeVal(k, min)
		}
	}
}

func initMinLabel(e *Engine) {
	for i := range e.Vertices {
		e.Vertices[i] = uint64(i)
	}
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleAll()
}

func newEngine(t *testing.T, g *graph.Graph, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	g, err := gen.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewEngine(g, Options{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeSequential}); err == nil {
		t.Error("parallel + sequential mode accepted")
	}
	// Deterministic forces one thread, so sequential mode is fine.
	e, err := NewEngine(g, Options{Scheduler: sched.Deterministic, Threads: 8, Mode: edgedata.ModeSequential})
	if err != nil {
		t.Fatal(err)
	}
	if e.Options().Threads != 1 {
		t.Fatalf("deterministic threads = %d, want 1", e.Options().Threads)
	}
}

// An observer that samples conflicts turns the census on by itself.
func TestObserverSampleConflictsEnablesCensus(t *testing.T) {
	g, _ := gen.Ring(8)
	o := obs.New(obs.Options{SampleConflicts: true})
	defer o.Close()
	if e := newEngine(t, g, Options{Observer: o}); !e.Options().EnableCensus || e.census == nil {
		t.Fatal("SampleConflicts observer left the census off")
	}
}

func TestRunNilUpdate(t *testing.T) {
	g, _ := gen.Ring(4)
	e := newEngine(t, g, Options{})
	if _, err := e.Run(nil); err == nil {
		t.Fatal("nil update accepted")
	}
}

func TestRunEmptyFrontierConvergesImmediately(t *testing.T) {
	g, _ := gen.Ring(4)
	e := newEngine(t, g, Options{})
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 || res.Updates != 0 {
		t.Fatalf("empty frontier: %+v", res)
	}
}

func TestMinLabelDeterministicRing(t *testing.T) {
	g, _ := gen.Ring(64)
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v, w := range e.Vertices {
		if w != 0 {
			t.Fatalf("vertex %d = %d, want 0 (single ring component)", v, w)
		}
	}
	if res.Updates < int64(g.N()) {
		t.Fatalf("Updates = %d, expected at least |V|", res.Updates)
	}
}

func TestMinLabelAllSchedulersAgree(t *testing.T) {
	g, err := gen.RMAT(300, 1500, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"det", Options{Scheduler: sched.Deterministic}},
		{"sync", Options{Scheduler: sched.Synchronous, Threads: 4, Mode: edgedata.ModeAtomic}},
		{"nondet-atomic", Options{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic}},
		{"nondet-lock", Options{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeLocked}},
		{"dig", Options{Scheduler: sched.DIG, Threads: 4, Mode: edgedata.ModeAtomic}},
		{"nosync", Options{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic, Verdict: testVerdict()}},
	} {
		e := newEngine(t, g, cfg.opts)
		initMinLabel(e)
		res, err := e.Run(minLabelUpdate)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", cfg.name)
		}
		if want == nil {
			want = append([]uint64(nil), e.Vertices...)
			continue
		}
		for v := range want {
			if e.Vertices[v] != want[v] {
				t.Fatalf("%s: vertex %d = %d, deterministic run had %d",
					cfg.name, v, e.Vertices[v], want[v])
			}
		}
	}
}

func TestTaskGenerationRule(t *testing.T) {
	// Chain 0→1→2: schedule only vertex 0 with a smaller label; each
	// iteration the min propagates exactly one hop, so scheduling follows
	// writes.
	g, _ := gen.Chain(3)
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, RecordIters: true})
	for i := range e.Vertices {
		e.Vertices[i] = uint64(i + 10)
	}
	e.Vertices[0] = 1
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleNow(0)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v := range e.Vertices {
		if e.Vertices[v] != 1 {
			t.Fatalf("vertex %d = %d, want 1", v, e.Vertices[v])
		}
	}
	if res.PerIter[0].Scheduled != 1 {
		t.Fatalf("iteration 0 scheduled %d vertices, want 1 (only the source)", res.PerIter[0].Scheduled)
	}
	// Deterministic GS on an ascending chain propagates the label all the
	// way in the first iteration (0 updates 1's edge, then 1 runs later in
	// the same pass? No: only vertex 0 is in S_0, so hop per iteration).
	if res.Iterations < 3 {
		t.Fatalf("iterations = %d, want >= 3 (one hop per iteration from a single source)", res.Iterations)
	}
}

func TestBSPReadsPreviousIteration(t *testing.T) {
	// Chain of 4; BSP must take one iteration per hop even though
	// Gauss–Seidel det execution would collapse hops of ascending labels.
	g, _ := gen.Chain(4)
	// Deterministic (GS, ascending): vertex 0 writes edge(0,1); f(1) in the
	// same S_0 pass reads the fresh value; whole chain collapses fast.
	det := newEngine(t, g, Options{Scheduler: sched.Deterministic, RecordIters: true})
	initMinLabel(det)
	resDet, err := det.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous: reads see the previous iteration, so the 0-label needs
	// 3 hops to reach vertex 3 — at least 4 iterations.
	syn := newEngine(t, g, Options{Scheduler: sched.Synchronous, Threads: 1, RecordIters: true})
	initMinLabel(syn)
	resSyn, err := syn.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !resDet.Converged || !resSyn.Converged {
		t.Fatal("runs did not converge")
	}
	for v := range det.Vertices {
		if det.Vertices[v] != 0 || syn.Vertices[v] != 0 {
			t.Fatalf("vertex %d: det=%d sync=%d, want 0", v, det.Vertices[v], syn.Vertices[v])
		}
	}
	if resSyn.Iterations <= resDet.Iterations {
		t.Fatalf("BSP iterations (%d) should exceed Gauss–Seidel iterations (%d) on an ascending chain",
			resSyn.Iterations, resDet.Iterations)
	}
}

func TestCensusClassifiesWCCStyleAsWW(t *testing.T) {
	// Two vertices joined by one edge, both scheduled, both writing the
	// edge: the census must see a write-write conflict edge.
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.Options{NumVertices: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Labels chosen so that under ascending-label order f(0) first writes
	// its own label to the edge and f(1), holding the smaller label, then
	// overwrites it in the same iteration — a genuine WW conflict.
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, EnableCensus: true, RecordIters: true})
	e.Vertices[0], e.Vertices[1] = 5, 3
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleAll()
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if res.WWConflicts == 0 {
		t.Fatalf("expected write-write conflicts, got %+v", res)
	}
}

func TestCensusClassifiesGatherScatterAsRW(t *testing.T) {
	// PageRank-style access: read in-edges, write out-edges, never touch
	// the other side. On edge (0→1) with both scheduled: f(0) writes from
	// src side, f(1) reads from dst side → RW conflict, no WW.
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}}, graph.Options{NumVertices: 2})
	if err != nil {
		t.Fatal(err)
	}
	update := func(ctx VertexView) {
		var sum uint64
		for k := 0; k < ctx.InDegree(); k++ {
			sum += ctx.InEdgeVal(k)
		}
		old := ctx.Vertex()
		ctx.SetVertex(sum)
		if old != sum {
			for k := 0; k < ctx.OutDegree(); k++ {
				ctx.SetOutEdgeVal(k, sum+1)
			}
		}
	}
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, EnableCensus: true})
	e.Frontier().ScheduleAll()
	e.Vertices[0] = 9 // force a first write
	res, err := e.Run(update)
	if err != nil {
		t.Fatal(err)
	}
	if res.RWConflicts == 0 {
		t.Fatalf("expected read-write conflicts, got %+v", res)
	}
	if res.WWConflicts != 0 {
		t.Fatalf("gather-scatter pattern produced WW conflicts: %+v", res)
	}
}

func TestResetAllowsRerun(t *testing.T) {
	g, _ := gen.Ring(32)
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(e)
	res1, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Frontier().Size() != 0 {
		t.Fatal("Reset left scheduled vertices")
	}
	initMinLabel(e)
	res2, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Iterations != res2.Iterations || res1.Updates != res2.Updates {
		t.Fatalf("deterministic reruns differ: %+v vs %+v", res1, res2)
	}
}

func TestAmplifyStillConverges(t *testing.T) {
	g, err := gen.RMAT(200, 1000, gen.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, Options{
		Scheduler: sched.Nondeterministic, Threads: 4,
		Mode: edgedata.ModeAtomic, Amplify: true,
	})
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("amplified nondeterministic run did not converge")
	}
	// Compare against deterministic ground truth.
	d := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(d)
	if _, err := d.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	for v := range d.Vertices {
		if d.Vertices[v] != e.Vertices[v] {
			t.Fatalf("vertex %d: nondet %d vs det %d", v, e.Vertices[v], d.Vertices[v])
		}
	}
}

func TestPerIterStats(t *testing.T) {
	g, _ := gen.Chain(5)
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, RecordIters: true})
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIter) != res.Iterations {
		t.Fatalf("PerIter has %d entries for %d iterations", len(res.PerIter), res.Iterations)
	}
	if res.PerIter[0].Scheduled != 5 {
		t.Fatalf("iteration 0 scheduled %d, want 5", res.PerIter[0].Scheduled)
	}
}

func BenchmarkEngineMinLabelDet(b *testing.B) {
	g, err := gen.RMAT(2000, 16000, gen.DefaultRMAT, 9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(g, Options{Scheduler: sched.Deterministic})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j := range e.Vertices {
			e.Vertices[j] = uint64(j)
		}
		e.Edges.Fill(^uint64(0))
		e.Frontier().ScheduleAll()
		if _, err := e.Run(minLabelUpdate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineMinLabelNondet4(b *testing.B) {
	g, err := gen.RMAT(2000, 16000, gen.DefaultRMAT, 9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(g, Options{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAligned})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j := range e.Vertices {
			e.Vertices[j] = uint64(j)
		}
		e.Edges.Fill(^uint64(0))
		e.Frontier().ScheduleAll()
		if _, err := e.Run(minLabelUpdate); err != nil {
			b.Fatal(err)
		}
	}
}

// The DIG scheduler is deterministic: parallel runs produce identical
// results and identical iteration counts, and those results match the
// sequential deterministic scheduler's.
func TestDIGSchedulerDeterministicParallel(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 163)
	if err != nil {
		t.Fatal(err)
	}
	det := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(det)
	if _, err := det.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	var firstIters int
	for run := 0; run < 3; run++ {
		e := newEngine(t, g, Options{Scheduler: sched.DIG, Threads: 4, Mode: edgedata.ModeAtomic})
		initMinLabel(e)
		res, err := e.Run(minLabelUpdate)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("DIG run did not converge")
		}
		if run == 0 {
			firstIters = res.Iterations
		} else if res.Iterations != firstIters {
			t.Fatalf("DIG iteration counts differ across runs: %d vs %d", res.Iterations, firstIters)
		}
		for v := range det.Vertices {
			if e.Vertices[v] != det.Vertices[v] {
				t.Fatalf("run %d: vertex %d = %d, det %d", run, v, e.Vertices[v], det.Vertices[v])
			}
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Iterations: 3, Updates: 10, Converged: true}
	if s := r.String(); s == "" || s[:9] != "converged" {
		t.Fatalf("String = %q", s)
	}
	r.Converged = false
	r.RWConflicts = 5
	s := r.String()
	if s[:3] != "NOT" {
		t.Fatalf("String = %q", s)
	}
	if want := "5 RW"; !containsStr(s, want) {
		t.Fatalf("String = %q missing %q", s, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
