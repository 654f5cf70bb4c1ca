package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/netdist"
	"ndgraph/internal/sched"
)

// Differential testing across every executor in the repository: the same
// monotone algorithm on the same random graph must converge to the same
// fixed point under
//
//	core (det / nondet / sync / DIG) · nosync (barrier-free)
//	· netdist (TCP workers) · hybrid forced to push (CAS combine)
//
// with the sequential reference implementations as the oracles. This is
// the strongest executable statement of the paper's thesis: the final
// results of eligible algorithms are execution-model-independent.

// diffSpec is the suite's graph for seed as a netdist spec: every netdist
// worker rebuilds the same R-MAT graph diffGraph builds from it.
func diffSpec(seed uint64) netdist.GraphSpec {
	return netdist.GraphSpec{Kind: "rmat", N: 200, M: 1200, Seed: seed}
}

func diffGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := diffSpec(seed).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// netdistRun runs algo on four netdist workers over diffSpec(seed). With
// dup > 0 every worker-to-worker frame goes through a fault proxy that
// delivers it twice with that probability.
func netdistRun(t *testing.T, seed uint64, algo netdist.AlgoSpec, dup float64) *netdist.Result {
	t.Helper()
	opt := netdist.Options{
		Workers:   4,
		Graph:     diffSpec(seed),
		Algo:      algo,
		RTO:       50 * time.Millisecond,
		Heartbeat: 25 * time.Millisecond,
	}
	if dup > 0 {
		proxy := netdist.NewProxy()
		defer proxy.Close()
		proxy.SetPlan(netdist.ProxyPlan{DupProb: dup, Seed: seed})
		opt.Proxy = proxy
	}
	res, err := netdist.Run(context.Background(), opt)
	if err != nil || !res.Converged {
		t.Fatalf("netdist %s: %v", algo.Name, err)
	}
	return res
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
		"core-det":     {Scheduler: sched.Deterministic},
		"core-nondet":  {Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Amplify: true},
		"core-dynamic": {Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Dispatch: sched.Dynamic},
		"core-sync":    {Scheduler: sched.Synchronous, Threads: 2, Mode: edgedata.ModeAtomic},
		"core-dig":     {Scheduler: sched.DIG, Threads: 4, Mode: edgedata.ModeAtomic},
	}
}

// differentialExecutors is what each differential test checks besides the
// core variants. Every test asserts (checked) that it ran exactly its row,
// and TestDifferentialCoverageManifest pins the rows.
var differentialExecutors = map[string][]string{
	"wcc":      {"nosync", "netdist", "hybrid-push"},
	"sssp":     {"nosync", "hybrid-push", "netdist"},
	"pagerank": {"nosync"},
}

// checked fails t unless seen holds exactly the core variants plus alg's
// row of differentialExecutors.
func checked(t *testing.T, alg string, seen map[string]bool) {
	t.Helper()
	want := differentialExecutors[alg]
	for name := range coreVariants() {
		want = append(want, name)
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("%s: executor %s was not checked", alg, name)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%s: checked %d executors, the manifest lists %d", alg, len(seen), len(want))
	}
}

// runNoSync drains a under the NoSync scheduler, admitted by the embedded
// certificate for the update named cert (no probe).
func runNoSync(t *testing.T, g *graph.Graph, a algorithms.Algorithm, cert string) *core.Engine {
	t.Helper()
	c, err := algorithms.CertificateFor("update", cert)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	e, res, err := algorithms.Run(a, g, core.Options{Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic, Verdict: v})
	if err != nil || !res.Converged {
		t.Fatalf("nosync %s: %v (%+v)", a.Name(), err, res)
	}
	t.Cleanup(e.Close)
	return e
}

func TestDifferentialWCCAllExecutors(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := diffGraph(t, 170+seed)
		want := algorithms.ReferenceWCC(g)
		seen := map[string]bool{}
		check := func(name string, got []uint32) {
			t.Helper()
			seen[name] = true
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

		// Barrier-free.
		{
			labels := make([]uint32, g.N())
			for v, w := range runNoSync(t, g, algorithms.NewWCC(), "wcc").Vertices {
				labels[v] = uint32(w)
			}
			check("nosync", labels)
		}

		// Message passing between TCP workers, with duplicated frames.
		check("netdist", netdistRun(t, 170+seed, netdist.AlgoSpec{Name: "wcc"}, 0.2).Labels())

		// Push mode with CAS.
		{
			labels := make([]uint32, g.N())
			for v, w := range hybridPushWords(t, g, algorithms.WCCKernel()) {
				labels[v] = uint32(w)
			}
			check("hybrid-push", labels)
		}
		checked(t, "wcc", seen)
	}
}

func TestDifferentialSSSPAllExecutors(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := diffGraph(t, 180+seed)
		src := PickSource(g)
		ref := algorithms.NewSSSP(g, src, seed+1)
		want := algorithms.ReferenceSSSP(g, src, ref.Weights)
		seen := map[string]bool{}
		check := func(name string, got []float64) {
			t.Helper()
			seen[name] = true
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

		// Barrier-free.
		{
			got := make([]float64, g.N())
			for v, w := range runNoSync(t, g, algorithms.NewSSSP(g, src, seed+1), "sssp").Vertices {
				got[v] = math.Float64frombits(w)
			}
			check("nosync", got)
		}

		{
			got := make([]float64, g.N())
			for v, w := range hybridPushWords(t, g, algorithms.SSSPKernel(src, ref.Weights)) {
				got[v] = math.Float64frombits(w)
			}
			check("hybrid-push", got)
		}

		check("netdist", netdistRun(t, 180+seed, netdist.AlgoSpec{Name: "sssp", Source: src, WeightSeed: seed + 1}, 0).Floats())

		checked(t, "sssp", seen)
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
	seen := map[string]bool{}
	closeEnough := func(name string, got []float64) {
		t.Helper()
		seen[name] = true
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

	// Barrier-free, same local ε, drained to quiescence.
	x := runNoSync(t, g, algorithms.NewPageRank(eps), "pagerank")
	closeEnough("nosync", ranks(x.Vertices))
	quiescent("nosync", x.Vertices, x.Edges)
	checked(t, "pagerank", seen)
}

// The manifest: five core variants, and the other three executors — the
// barrier-free one on every algorithm — each checked somewhere.
func TestDifferentialCoverageManifest(t *testing.T) {
	if len(coreVariants()) != 5 {
		t.Fatalf("core variants = %d, want 5", len(coreVariants()))
	}
	tiers := map[string]bool{}
	for alg, row := range differentialExecutors {
		hasNoSync := false
		for _, name := range row {
			tiers[name] = true
			hasNoSync = hasNoSync || name == "nosync"
		}
		if !hasNoSync {
			t.Errorf("%s has no barrier-free row", alg)
		}
	}
	for _, name := range []string{"nosync", "netdist", "hybrid-push"} {
		if !tiers[name] {
			t.Errorf("no differential test checks %s", name)
		}
	}
	if len(tiers) != 3 {
		t.Errorf("differential rows name %d non-core executors, want 3: %v", len(tiers), tiers)
	}
}
