// Cross-engine differential suite: the same eligible algorithm on the
// same graph must reach the byte-identical fixed point on every executor
// in the repository, with the sequential deterministic engine (DE) as the
// baseline and the independent sequential references as oracles. This is
// the paper's thesis as a single table:
//
//	{WCC, SSSP, BFS, k-core} × {core-nondet(lock), core-nondet(atomic),
//	nosync (barrier-free), hybrid forced to push every iteration (CAS
//	combine), hybrid alternating push/pull}
//	                                 → identical converged values
//	PageRank × {core variants, nosync} → agreement within ε
//
// One deliberate exclusion, asserted by TestCrossEngineCoverageManifest:
// hybrid × k-core (either policy). The h-index update gathers all neighbor
// estimates at once; the hybrid engine runs paired push/pull kernels built
// from the unary Message/Better monotone merge, which cannot express that
// gather.
//
// Graphs are seeded R-MAT (skewed) and banded (near-uniform, local), so
// both conflict regimes of the paper's evaluation are exercised. Only
// ModeLocked and ModeAtomic appear here — ModeAligned's benign races are
// compiled out under -race — so this file runs under the race detector.
package ndgraph_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/experiments"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/sched"
)

const diffThreads = 4

type diffGraph struct {
	name string
	g    *graph.Graph
	seed uint64
}

// diffGraphs generates the seeded graph battery: two R-MAT and two banded
// instances, all small enough that the full grid stays fast under -race.
func diffGraphs(t *testing.T) []diffGraph {
	t.Helper()
	var out []diffGraph
	for seed := uint64(0); seed < 2; seed++ {
		rm, err := gen.RMAT(240, 1500, gen.DefaultRMAT, 900+seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffGraph{fmt.Sprintf("rmat-%d", seed), rm, seed})
		bd, err := gen.Banded(200, 6, 16, 910+seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffGraph{fmt.Sprintf("banded-%d", seed), bd, seed})
	}
	return out
}

// diffCoreEngines is the grid of parallel core-engine configurations under
// test: the nondeterministic scheduler over both race-detector-safe
// atomicity modes.
func diffCoreEngines() []struct {
	name string
	opts core.Options
} {
	return []struct {
		name string
		opts core.Options
	}{
		{"core-nondet-lock", core.Options{Scheduler: sched.Nondeterministic, Threads: diffThreads, Mode: edgedata.ModeLocked}},
		{"core-nondet-atomic", core.Options{Scheduler: sched.Nondeterministic, Threads: diffThreads, Mode: edgedata.ModeAtomic}},
	}
}

// runCoreWords runs a on g under opts and returns the converged vertex
// words.
func runCoreWords(t *testing.T, g *graph.Graph, a algorithms.Algorithm, opts core.Options) []uint64 {
	t.Helper()
	e, res, err := algorithms.Run(a, g, opts)
	if err != nil || !res.Converged {
		t.Fatalf("%s: run: %v (converged=%v)", a.Name(), err, res.Converged)
	}
	return append([]uint64(nil), e.Vertices...)
}

// runNoSyncWords runs a under the core engine's barrier-free NoSync
// scheduler, admission gated by the algorithm's own static/probe
// eligibility verdict (algorithms.Run derives it) — the full production
// path.
func runNoSyncWords(t *testing.T, g *graph.Graph, a algorithms.Algorithm) []uint64 {
	t.Helper()
	e, res, err := algorithms.Run(a, g, core.Options{Scheduler: sched.NoSync, Threads: diffThreads, Mode: edgedata.ModeAtomic})
	if err != nil || !res.Converged {
		t.Fatalf("nosync %s: %v (converged=%v)", a.Name(), err, res.Converged)
	}
	defer e.Close()
	return append([]uint64(nil), e.Vertices...)
}

// The two hybrid rows. hybridPush is push mode proper — never pull, what
// the facade's Push* entry points run. hybridAlternate switches every
// iteration, so the run genuinely crosses direction switches: the default
// Beamer policy only pulls for bottom-up kernels (BFS), which would leave
// the WCC and SSSP rows exercising nothing but the push sweep.
func hybridPush(hybrid.Stats) hybrid.Direction        { return hybrid.Push }
func hybridAlternate(s hybrid.Stats) hybrid.Direction { return hybrid.Direction(s.Iter % 2) }

// runHybridWords runs a paired push/pull kernel on the direction-
// optimizing engine under the given policy.
func runHybridWords(t *testing.T, g *graph.Graph, k algorithms.Kernel, policy hybrid.Policy) []uint64 {
	t.Helper()
	e, err := hybrid.NewEngine(g, diffThreads)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Policy = policy
	res, err := e.Run(context.Background(), k)
	if err != nil || !res.Converged {
		t.Fatalf("hybrid %s: %v (converged=%v)", k.Name, err, res.Converged)
	}
	return append([]uint64(nil), e.Vertices...)
}

func wordsToLabels(words []uint64) []uint32 {
	out := make([]uint32, len(words))
	for v, w := range words {
		out[v] = uint32(w)
	}
	return out
}

func wordsToFloats(words []uint64) []float64 {
	out := make([]float64, len(words))
	for v, w := range words {
		out[v] = edgedata.ToFloat64(w)
	}
	return out
}

func checkLabels(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %d, sequential DE fixed point %d", name, v, got[v], want[v])
		}
	}
}

// checkFloats demands bit-identical agreement: eligible monotone
// algorithms with absolute convergence have execution-model-independent
// fixed points, so even floating-point distances match exactly.
func checkFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %v, sequential DE fixed point %v", name, v, got[v], want[v])
		}
	}
}

func TestCrossEngineDifferentialWCC(t *testing.T) {
	for _, gc := range diffGraphs(t) {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.g
			want := wordsToLabels(runCoreWords(t, g, algorithms.NewWCC(), core.Options{Scheduler: sched.Deterministic}))
			// The DE baseline itself must match the union-find oracle.
			checkLabels(t, "core-det vs union-find", want, algorithms.ReferenceWCC(g))

			for _, ce := range diffCoreEngines() {
				checkLabels(t, ce.name, wordsToLabels(runCoreWords(t, g, algorithms.NewWCC(), ce.opts)), want)
			}
			checkLabels(t, "nosync", wordsToLabels(runNoSyncWords(t, g, algorithms.NewWCC())), want)

			// hybrid runs WCC on the symmetrized graph (Kernel.Undirected).
			checkLabels(t, "hybrid-push",
				wordsToLabels(runHybridWords(t, g.Undirected(), algorithms.WCCKernel(), hybridPush)), want)
			checkLabels(t, "hybrid",
				wordsToLabels(runHybridWords(t, g.Undirected(), algorithms.WCCKernel(), hybridAlternate)), want)
		})
	}
}

func TestCrossEngineDifferentialBFS(t *testing.T) {
	for _, gc := range diffGraphs(t) {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.g
			src := experiments.PickSource(g)
			bfs := algorithms.NewBFS(g, src)
			want := wordsToFloats(runCoreWords(t, g, bfs, core.Options{Scheduler: sched.Deterministic}))
			checkFloats(t, "core-det vs dijkstra", want, algorithms.ReferenceSSSP(g, src, bfs.Weights))

			for _, ce := range diffCoreEngines() {
				checkFloats(t, ce.name, wordsToFloats(runCoreWords(t, g, algorithms.NewBFS(g, src), ce.opts)), want)
			}
			checkFloats(t, "nosync", wordsToFloats(runNoSyncWords(t, g, algorithms.NewBFS(g, src))), want)

			checkFloats(t, "hybrid-push",
				wordsToFloats(runHybridWords(t, g, algorithms.BFSKernel(src), hybridPush)), want)
			checkFloats(t, "hybrid",
				wordsToFloats(runHybridWords(t, g, algorithms.BFSKernel(src), hybridAlternate)), want)
		})
	}
}

func TestCrossEngineDifferentialSSSP(t *testing.T) {
	for _, gc := range diffGraphs(t) {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.g
			src := experiments.PickSource(g)
			ref := algorithms.NewSSSP(g, src, gc.seed+7)
			want := wordsToFloats(runCoreWords(t, g, ref, core.Options{Scheduler: sched.Deterministic}))
			checkFloats(t, "core-det vs dijkstra", want, algorithms.ReferenceSSSP(g, src, ref.Weights))

			for _, ce := range diffCoreEngines() {
				checkFloats(t, ce.name, wordsToFloats(runCoreWords(t, g, algorithms.NewSSSP(g, src, gc.seed+7), ce.opts)), want)
			}
			checkFloats(t, "nosync", wordsToFloats(runNoSyncWords(t, g, algorithms.NewSSSP(g, src, gc.seed+7))), want)

			checkFloats(t, "hybrid-push",
				wordsToFloats(runHybridWords(t, g, algorithms.SSSPKernel(src, ref.Weights), hybridPush)), want)
			checkFloats(t, "hybrid",
				wordsToFloats(runHybridWords(t, g, algorithms.SSSPKernel(src, ref.Weights), hybridAlternate)), want)
		})
	}
}

func TestCrossEngineDifferentialKCore(t *testing.T) {
	for _, gc := range diffGraphs(t) {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.g
			want := wordsToLabels(runCoreWords(t, g, algorithms.NewKCore(), core.Options{Scheduler: sched.Deterministic}))
			checkLabels(t, "core-det vs peeling", want, algorithms.ReferenceKCore(g))

			for _, ce := range diffCoreEngines() {
				checkLabels(t, ce.name, wordsToLabels(runCoreWords(t, g, algorithms.NewKCore(), ce.opts)), want)
			}
			checkLabels(t, "nosync", wordsToLabels(runNoSyncWords(t, g, algorithms.NewKCore())), want)
		})
	}
}

// pageRankTol is how far (absolute, per vertex) a converged PageRank may
// land from the power-iteration oracle.
const pageRankTol = 0.02

// PageRank has a relative convergence condition, so converged vectors are
// ε-close rather than identical; every engine must land near the
// power-iteration oracle.
func TestCrossEngineDifferentialPageRank(t *testing.T) {
	for _, gc := range diffGraphs(t) {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.g
			want := algorithms.ReferencePageRank(g, 0.85, 1e-12, 20000)
			check := func(name string, got []float64) {
				t.Helper()
				for v := range want {
					if d := got[v] - want[v]; d > pageRankTol || d < -pageRankTol {
						t.Fatalf("%s: rank[%d] = %v, reference %v", name, v, got[v], want[v])
					}
				}
			}
			engines := append(diffCoreEngines(), struct {
				name string
				opts core.Options
			}{"core-det", core.Options{Scheduler: sched.Deterministic}})
			for _, ce := range engines {
				pr := algorithms.NewPageRank(1e-7)
				e, res, err := algorithms.Run(pr, g, ce.opts)
				if err != nil || !res.Converged {
					t.Fatalf("%s: %v (converged=%v)", ce.name, err, res.Converged)
				}
				check(ce.name, pr.Ranks(e))
			}
			// The barrier-free tier: PageRank is Theorem-1 eligible
			// (RW-only conflicts) but converges approximately, so its
			// barrier-free fixed point is ε-close, not identical.
			check("nosync", wordsToFloats(runNoSyncWords(t, g, algorithms.NewPageRank(1e-7))))
		})
	}
}

// Static dispatch cuts blocks at equal shares of updates and incident edges
// (sched.Cuts), so on a hubs-first graph its blocks differ from Fig. 1's
// equal counts in both size and membership. Contiguity and small-label-first
// are all the theorems use, so the fixed points must not move: WCC, BFS and
// SSSP under nondet are byte-identical to det at every P, and PageRank lands
// as close to the oracle as on the battery above.
func TestCrossEngineDifferentialSkewedBlocks(t *testing.T) {
	g, err := gen.RMAT(1024, 8192, gen.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = graph.Relabel(g, graph.DegreeDescOrder(g)); err != nil {
		t.Fatal(err)
	}
	// The precondition: equal-count blocks leave worker 0 nearly every edge.
	var first int
	for v := 0; v < g.N()/2; v++ {
		first += g.Degree(uint32(v))
	}
	if frac := float64(first) / float64(2*g.M()); frac < 0.8 {
		t.Fatalf("count cuts give worker 0 only %.2f of the incident edges; the graph is not skewed", frac)
	}
	src := experiments.PickSource(g)
	bfs := algorithms.NewBFS(g, src)
	cases := []struct {
		name string
		mk   func() algorithms.Algorithm
	}{
		{"wcc", func() algorithms.Algorithm { return algorithms.NewWCC() }},
		{"bfs", func() algorithms.Algorithm { return algorithms.NewBFS(g, src) }},
		{"sssp", func() algorithms.Algorithm { return algorithms.NewSSSP(g, src, 7) }},
	}
	checkFloats(t, "bfs det vs dijkstra",
		wordsToFloats(runCoreWords(t, g, bfs, core.Options{Scheduler: sched.Deterministic})),
		algorithms.ReferenceSSSP(g, src, bfs.Weights))
	want := algorithms.ReferencePageRank(g, 0.85, 1e-12, 20000)
	for _, p := range []int{2, 3, 4} {
		for _, c := range cases {
			det := runCoreWords(t, g, c.mk(), core.Options{Scheduler: sched.Deterministic})
			nondet := runCoreWords(t, g, c.mk(), core.Options{Scheduler: sched.Nondeterministic, Threads: p, Mode: edgedata.ModeAtomic})
			for v := range det {
				if nondet[v] != det[v] {
					t.Fatalf("%s P=%d: vertex %d word %#x, det %#x", c.name, p, v, nondet[v], det[v])
				}
			}
		}
		pr := algorithms.NewPageRank(1e-7)
		e, res, err := algorithms.Run(pr, g, core.Options{Scheduler: sched.Nondeterministic, Threads: p, Mode: edgedata.ModeAtomic})
		if err != nil || !res.Converged {
			t.Fatalf("pagerank P=%d: %v (converged=%v)", p, err, res.Converged)
		}
		for v, r := range pr.Ranks(e) {
			if d := r - want[v]; d > pageRankTol || d < -pageRankTol {
				t.Fatalf("pagerank P=%d: rank[%d] = %v, reference %v", p, v, r, want[v])
			}
		}
	}
}

// TestCrossEngineCoverageManifest pins the grid so a silently dropped
// engine or algorithm cannot pass review: 4 exact-agreement algorithms,
// 2 parallel core modes, 4 graph instances, and exactly the one documented
// exclusion (hybrid × k-core) — see the package comment for why it is
// structural, not an omission.
func TestCrossEngineCoverageManifest(t *testing.T) {
	if n := len(diffCoreEngines()); n != 2 {
		t.Fatalf("parallel core engine variants = %d, want 2 (lock, atomic)", n)
	}
	if n := len(diffGraphs(t)); n != 4 {
		t.Fatalf("graph battery = %d instances, want 4 (2 seeds × {rmat, banded})", n)
	}
	// engine coverage per algorithm: core-det + 2 core-nondet + the others
	covered := map[string][]string{
		"wcc":   {"core-det", "core-nondet-lock", "core-nondet-atomic", "nosync", "hybrid-push", "hybrid"},
		"bfs":   {"core-det", "core-nondet-lock", "core-nondet-atomic", "nosync", "hybrid-push", "hybrid"},
		"sssp":  {"core-det", "core-nondet-lock", "core-nondet-atomic", "nosync", "hybrid-push", "hybrid"},
		"kcore": {"core-det", "core-nondet-lock", "core-nondet-atomic", "nosync"},
	}
	excluded := map[string]string{
		"hybrid/kcore": "paired kernels share the unary Message/Better merge, which cannot express the h-index gather",
	}
	for alg, engines := range covered {
		for _, e := range engines {
			if _, bad := excluded[strings.TrimSuffix(e, "-push")+"/"+alg]; bad {
				t.Fatalf("%s×%s is both covered and excluded", e, alg)
			}
		}
	}
	if len(excluded) != 1 {
		t.Fatalf("exclusions = %d, want exactly 1", len(excluded))
	}
}
