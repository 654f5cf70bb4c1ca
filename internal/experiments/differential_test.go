package experiments

import (
	"context"
	"math"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/autonomous"
	"ndgraph/internal/core"
	"ndgraph/internal/dist"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/sched"
	"ndgraph/internal/shard"
)

// Differential testing across every executor in the repository: the same
// monotone algorithm on the same random graph must converge to the same
// fixed point under
//
//	core (det / nondet / sync / chromatic / DIG) · async · shard (PSW)
//	· dist (message passing) · hybrid forced to push (CAS combine)
//	· autonomous (priority)
//
// with the sequential reference implementations as the oracles. This is
// the strongest executable statement of the paper's thesis: the final
// results of eligible algorithms are execution-model-independent.

func diffGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hybridPushWords runs k in push mode: the hybrid engine under a policy that
// never pulls.
func hybridPushWords(t *testing.T, g *graph.Graph, k algorithms.Kernel) []uint64 {
	t.Helper()
	if k.Undirected {
		g = g.Undirected()
	}
	e, err := hybrid.NewEngine(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Policy = func(hybrid.Stats) hybrid.Direction { return hybrid.Push }
	res, err := e.Run(context.Background(), k)
	if err != nil || !res.Converged {
		t.Fatalf("hybrid-push %s: %v (converged=%v)", k.Name, err, res.Converged)
	}
	return e.Vertices
}

func coreVariants() map[string]core.Options {
	return map[string]core.Options{
		"core-det":       {Scheduler: sched.Deterministic},
		"core-nondet":    {Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true},
		"core-dynamic":   {Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Dispatch: sched.Dynamic},
		"core-sync":      {Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic},
		"core-chromatic": {Scheduler: sched.Chromatic, Threads: 4, Mode: edgedata.ModeAtomic},
		"core-dig":       {Scheduler: sched.DIG, Threads: 4, Mode: edgedata.ModeAtomic},
	}
}

func TestDifferentialWCCAllExecutors(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := diffGraph(t, 170+seed)
		want := algorithms.ReferenceWCC(g)
		check := func(name string, got []uint32) {
			t.Helper()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed %d, %s: label[%d] = %d, union-find %d", seed, name, v, got[v], want[v])
				}
			}
		}

		// Core engine variants.
		for name, opts := range coreVariants() {
			wcc := algorithms.NewWCC()
			e, res, err := algorithms.Run(wcc, g, opts)
			if err != nil || !res.Converged {
				t.Fatalf("%s: %v (converged=%v)", name, err, res.Converged)
			}
			check(name, wcc.Components(e))
		}

		// Pure asynchronous.
		{
			wcc := algorithms.NewWCC()
			seedEng, err := core.NewEngine(g, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wcc.Setup(seedEng)
			x, err := async.NewExecutor(g, async.Options{Threads: 4, Mode: edgedata.ModeAtomic})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.LoadFrom(seedEng); err != nil {
				t.Fatal(err)
			}
			res, err := x.Run(wcc.Update)
			if err != nil || !res.Converged {
				t.Fatalf("async: %v", err)
			}
			labels := make([]uint32, g.N())
			for v, w := range x.Vertices {
				labels[v] = uint32(w)
			}
			check("async", labels)
		}

		// Out-of-core PSW.
		{
			st, err := shard.Build(g, t.TempDir(), 3)
			if err != nil {
				t.Fatal(err)
			}
			for v := range st.Vertices {
				st.Vertices[v] = uint64(v)
			}
			if err := st.FillValues(^uint64(0)); err != nil {
				t.Fatal(err)
			}
			e, err := shard.NewEngine(st, shard.Options{Threads: 2, Mode: edgedata.ModeAtomic})
			if err != nil {
				t.Fatal(err)
			}
			e.Frontier().ScheduleAll()
			wcc := algorithms.NewWCC()
			res, err := e.Run(wcc.Update)
			if err != nil || !res.Converged {
				t.Fatalf("shard: %v", err)
			}
			labels := make([]uint32, g.N())
			for v, w := range st.Vertices {
				labels[v] = uint32(w)
			}
			check("shard", labels)
		}

		// Distributed message passing with duplication.
		{
			labels, res, err := dist.WCC(g, dist.Options{Workers: 4, Seed: seed, DuplicateProb: 0.2})
			if err != nil || !res.Converged {
				t.Fatalf("dist: %v", err)
			}
			check("dist", labels)
		}

		// Push mode with CAS.
		{
			labels := make([]uint32, g.N())
			for v, w := range hybridPushWords(t, g, algorithms.WCCKernel()) {
				labels[v] = uint32(w)
			}
			check("hybrid-push", labels)
		}
	}
}

func TestDifferentialSSSPAllExecutors(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := diffGraph(t, 180+seed)
		src := PickSource(g)
		ref := algorithms.NewSSSP(g, src, seed+1)
		want := algorithms.ReferenceSSSP(g, src, ref.Weights)
		check := func(name string, got []float64) {
			t.Helper()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed %d, %s: dist[%d] = %v, dijkstra %v", seed, name, v, got[v], want[v])
				}
			}
		}

		for name, opts := range coreVariants() {
			s := algorithms.NewSSSP(g, src, seed+1)
			e, res, err := algorithms.Run(s, g, opts)
			if err != nil || !res.Converged {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, s.Distances(e))
		}

		{
			s := algorithms.NewSSSP(g, src, seed+1)
			seedEng, err := core.NewEngine(g, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.Setup(seedEng)
			x, err := async.NewExecutor(g, async.Options{Threads: 4, Mode: edgedata.ModeAtomic})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.LoadFrom(seedEng); err != nil {
				t.Fatal(err)
			}
			res, err := x.Run(s.Update)
			if err != nil || !res.Converged {
				t.Fatalf("async: %v", err)
			}
			got := make([]float64, g.N())
			for v, w := range x.Vertices {
				got[v] = math.Float64frombits(w)
			}
			check("async", got)
		}

		{
			got := make([]float64, g.N())
			for v, w := range hybridPushWords(t, g, algorithms.SSSPKernel(src, ref.Weights)) {
				got[v] = math.Float64frombits(w)
			}
			check("hybrid-push", got)
		}

		{
			got, res, err := dist.SSSP(g, src, ref.Weights, dist.Options{Workers: 4, Seed: seed, DuplicateProb: 0.1})
			if err != nil || !res.Converged {
				t.Fatalf("dist: %v", err)
			}
			check("dist", got)
		}

		{
			got, res, err := autonomous.SSSP(g, src, ref.Weights)
			if err != nil || !res.Converged {
				t.Fatalf("autonomous: %v", err)
			}
			check("autonomous", got)
		}
	}
}

// PageRank (approximate convergence) across execution models: values need
// not be identical, but every model's converged vector must sit near the
// true fixed point, and every engine's quiescent state must satisfy the
// paper's stopping rule exactly.
func TestDifferentialPageRankAllExecutors(t *testing.T) {
	g := diffGraph(t, 190)
	const eps = 1e-7
	want := algorithms.ReferencePageRank(g, 0.85, 1e-12, 20000)
	closeEnough := func(name string, got []float64) {
		t.Helper()
		for v := range want {
			if math.Abs(got[v]-want[v]) > 0.02 {
				t.Fatalf("%s: rank[%d] = %v, reference %v", name, v, got[v], want[v])
			}
		}
	}
	ranks := func(vertices []uint64) []float64 {
		out := make([]float64, len(vertices))
		for v, w := range vertices {
			out[v] = edgedata.ToFloat64(w)
		}
		return out
	}
	// quiescent is the postcondition of running the local rule to
	// quiescence, with no margin: no vertex is scheduled, so each one's
	// last update saw its final in-edges and moved its rank by < ε. The
	// state is therefore a fixed point of its own update — transplanted
	// into a single-threaded engine, one sweep over all vertices moves no
	// rank by ε or more (and so scatters nothing).
	quiescent := func(name string, vertices []uint64, edges edgedata.Store) {
		t.Helper()
		pr := algorithms.NewPageRank(eps)
		e, err := core.NewEngine(g, core.Options{Scheduler: sched.Deterministic, MaxIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		copy(e.Vertices, vertices)
		for i, w := range edges.Snapshot() {
			e.Edges.Store(uint32(i), w)
		}
		e.Frontier().ScheduleAll()
		res, err := e.Run(func(ctx core.VertexView) {
			old := edgedata.ToFloat64(ctx.Vertex())
			pr.Update(ctx)
			if d := math.Abs(edgedata.ToFloat64(ctx.Vertex()) - old); !(d < eps) {
				t.Errorf("%s: one more sweep moves rank[%d] by %g, want < ε = %g", name, ctx.V(), d, eps)
			}
		})
		if err != nil || !res.Converged {
			t.Fatalf("%s: sweep over the converged state rescheduled vertices: %v (%+v)", name, err, res)
		}
	}

	for name, opts := range coreVariants() {
		pr := algorithms.NewPageRank(eps)
		e, res, err := algorithms.Run(pr, g, opts)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v", name, err)
		}
		closeEnough(name, pr.Ranks(e))
		quiescent(name, e.Vertices, e.Edges)
	}

	// Autonomous delta-PageRank.
	rank, res, err := autonomous.DeltaPageRank(g, 0.85, 1e-10)
	if err != nil || !res.Converged {
		t.Fatalf("autonomous: %v", err)
	}
	closeEnough("autonomous", rank)

	// Both barrier-free executors, same local ε, drained to quiescence.
	seeded := func() (*algorithms.PageRank, *core.Engine) {
		pr := algorithms.NewPageRank(eps)
		e, err := core.NewEngine(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pr.Setup(e)
		return pr, e
	}
	{
		pr, seed := seeded()
		x, err := async.NewExecutor(g, async.Options{Threads: 4, Mode: edgedata.ModeAtomic})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := x.LoadFrom(seed); err != nil {
			t.Fatal(err)
		}
		if res, err := x.Run(pr.Update); err != nil || !res.Converged {
			t.Fatalf("async: %v (%+v)", err, res)
		}
		closeEnough("async", ranks(x.Vertices))
		quiescent("async", x.Vertices, x.Edges)
	}
	{
		pr, seed := seeded()
		v, err := algorithms.NoSyncVerdict(pr, g)
		if err != nil {
			t.Fatal(err)
		}
		x, err := async.NewNoSync(g, async.NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic, Verdict: &v})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := x.LoadFrom(seed); err != nil {
			t.Fatal(err)
		}
		if res, err := x.Run(pr.Update); err != nil || !res.Converged {
			t.Fatalf("nosync: %v (%+v)", err, res)
		}
		closeEnough("nosync", ranks(x.Vertices))
		quiescent("nosync", x.Vertices, x.Edges)
	}
}

// Sanity: every executor pair really did run — count them so a silently
// skipped branch cannot pass.
func TestDifferentialCoverageManifest(t *testing.T) {
	if len(coreVariants()) != 6 {
		t.Fatalf("core variants = %d, want 6", len(coreVariants()))
	}
}
