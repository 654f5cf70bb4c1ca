package main

import (
	"fmt"
	"time"

	"ndgraph"
	"ndgraph/internal/experiments"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

// workload is one benchmark input: a graph family, an algorithm, and the four
// executors whose time-to-fixed-point is gated on it. Sizes and batches are
// constants, never adaptive, so both sides of a comparison do identical work
// per sample.
type workload struct {
	Name string
	Algo string // "pagerank", "bfs", "wcc" or "sssp"
	// Dataset and Div select gen.Synthesize(dataset, Div, seed); RMAT, when
	// set, replaces them with the generative spec netdist workers rebuild.
	Dataset string
	Div     int
	RMAT    [2]int // N, M
	// HubsFirst relabels the vertices in descending-degree order (see
	// hubsFirst).
	HubsFirst bool
	// Alt is the fourth gated executor: the one the workload exists to
	// measure (hybrid, netdist), or a core contender where there is none.
	// Its time is alt.solve_s (see gatedTier).
	Alt string
	// Batch is the number of solves per sample for det, nondet, nosync and
	// Alt, sized on the reference 2-core box so a round lasts about two
	// seconds.
	Batch [4]int
	// Contenders are consolidation candidates solved once in the traced
	// pass, each on the one workload it is assigned. Reduced ones take
	// seconds to tens of seconds at full scale, so they solve the same graph
	// family reducedDiv times smaller, next to nondet on that graph.
	Contenders []string
	Reduced    []string
}

const reducedDiv = 16

// gatedTier is one executor of a round and the end-to-end metric its solve
// time is reported under. det (the paper's DE and the single-threaded
// baseline), nondet (the paper's NE) and nosync (the barrier-free tier) run
// on every workload under their own names. The driver's contract wants every
// end-to-end metric reported, and never 0, on every workload ("With --trace 0
// the metrics are every end_to_end metric", "Choose metrics that are never
// 0"), and neither hybrid (no PageRank kernel) nor netdist (2.4 s a solve,
// and its workers rebuild only generative specs) can run everywhere, so the
// issue's hybrid.solve_s and netdist.solve_s share the name alt.solve_s; the
// result file names the tier behind it.
type gatedTier struct {
	tier, metric string
	batch        int
}

func (c *config) gated() []gatedTier {
	tiers := []gatedTier{
		{tier: "det", metric: "det.solve_s"},
		{tier: "nondet", metric: "nondet.solve_s"},
		{tier: "nosync", metric: "nosync.solve_s"},
		{tier: c.w.Alt, metric: "alt.solve_s"},
	}
	for i := range tiers {
		tiers[i].batch = c.w.Batch[i]
		if c.smoke {
			tiers[i].batch = 1
		}
	}
	return tiers
}

// pageRankEps is the differential suite's ε (ndgraph_diff_test.go): with it
// every tier lands inside that suite's pinned tolerance of the
// power-iteration oracle, which ε = 1e-3 misses by three orders of magnitude
// on a hub of rank 1e4.
const pageRankEps = 1e-7

var workloads = []*workload{
	{
		// Alt: chunked dynamic dispatch, the core engine's other way to
		// spread a dense iteration over the workers.
		Name: "pr-social", Algo: "pagerank", Dataset: "soc-livejournal1", Div: 40,
		Alt: "dynamic", Batch: [4]int{1, 1, 1, 1},
	},
	{
		Name: "bfs-banded", Algo: "bfs", Dataset: "cage15", Div: 20,
		Alt: "hybrid", Batch: [4]int{1, 1, 1, 12},
		Contenders: []string{"push"},
	},
	{
		Name: "wcc-web", Algo: "wcc", Dataset: "web-berkstan", Div: 1, HubsFirst: true,
		Alt: "hybrid", Batch: [4]int{1, 1, 1, 5},
		Reduced: []string{"shard", "dist"},
	},
	{
		Name: "sssp-netdist", Algo: "sssp", RMAT: [2]int{200_000, 1_000_000},
		Alt: "netdist", Batch: [4]int{3, 3, 3, 1},
		Contenders: []string{"autonomous", "hybrid"},
	},
}

// universalContenders run on every workload in the traced pass: the paper's
// other two atomicity methods, dynamic dispatch, and the channel executor.
var universalContenders = []string{"locked", "aligned", "dynamic", "async-chan"}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// smokeDiv shrinks every graph for -smoke and the package test.
const smokeDiv = 20

// config is one invocation's settings.
type config struct {
	root    string // checkout root: BENCHMARK.json lives here
	w       *workload
	seed    uint64
	seconds float64
	smoke   bool
	workers int    // P = min(nproc, 4)
	tmp     string // scratch directory inside the checkout
}

func (c *config) div() int {
	if c.smoke {
		return smokeDiv
	}
	return 1
}

// minRounds is the least number of samples a gated tier contributes.
func (c *config) minRounds() int {
	if c.smoke {
		return 1
	}
	return 7
}

// moreRounds reports whether the measured rounds go on: until --seconds have
// passed and every tier has minRounds samples, however long that takes.
func (c *config) moreRounds(done int, start time.Time) bool {
	return done < c.minRounds() || time.Since(start).Seconds() < c.seconds
}

// setupSamples is how many times a run goes from graph file to ready engine.
func (c *config) setupSamples() int {
	if c.smoke {
		return 1
	}
	return 5
}

// synthesize makes the workload's graph from the seed. The generative spec is
// non-zero only where netdist workers can rebuild the same graph themselves.
func (c *config) synthesize() (*ndgraph.Graph, ndgraph.NetDistGraph, error) {
	w := c.w
	if w.RMAT[0] > 0 {
		spec := ndgraph.NetDistGraph{Kind: "rmat", N: w.RMAT[0] / c.div(), M: w.RMAT[1] / c.div(), Seed: c.seed}
		g, err := spec.Build()
		return g, spec, err
	}
	d, err := gen.ParseDataset(w.Dataset)
	if err != nil {
		return nil, ndgraph.NetDistGraph{}, err
	}
	g, err := ndgraph.Synthesize(d, w.Div*c.div(), c.seed)
	if err == nil && w.HubsFirst {
		g, err = hubsFirst(g)
	}
	return g, ndgraph.NetDistGraph{}, err
}

// hubsFirst relabels the vertices in descending order of degree, ties by old
// label. Minimum-label propagation costs up to twice as much when the
// component's smallest label happens to sit on a leaf rather than near a hub
// (measured over ten seeds of the web-berkstan analog: nosync 0.25 to 0.52 s),
// which would make the workload measure the seed. With hubs first the label
// floods from the largest hub on every seed, and contiguous static blocks are
// as unbalanced as the degree skew can make them.
func hubsFirst(g *ndgraph.Graph) (*ndgraph.Graph, error) {
	return graph.Relabel(g, graph.DegreeDescOrder(g))
}

// problem is a workload instance the executors solve: the graph as loaded
// from disk plus the algorithm's parameters.
type problem struct {
	cfg  *config
	g    *ndgraph.Graph
	spec ndgraph.NetDistGraph
	algo ndgraph.Algorithm
	// source, weightSeed and weights parameterise the traversals (weights
	// are in canonical edge order; unit for BFS).
	source     uint32
	weightSeed uint64
	weights    []float64
	// sym caches the symmetrised graph WCC's push/pull kernel needs.
	sym *ndgraph.Graph
}

// undirected builds the symmetrised graph on first use; an executor's plain
// and observed instances share it.
func (pr *problem) undirected() *ndgraph.Graph {
	if pr.sym == nil {
		pr.sym = pr.g.Undirected()
	}
	return pr.sym
}

func newProblem(cfg *config, g *ndgraph.Graph, spec ndgraph.NetDistGraph) (*problem, error) {
	pr := &problem{cfg: cfg, g: g, spec: spec, weightSeed: cfg.seed + 1}
	switch cfg.w.Algo {
	case "pagerank":
		pr.algo = ndgraph.NewPageRank(pageRankEps)
	case "wcc":
		pr.algo = ndgraph.NewWCC()
	case "bfs":
		pr.source = experiments.PickSource(g)
		a := ndgraph.NewBFS(g, pr.source)
		pr.algo, pr.weights = a, a.Weights
	case "sssp":
		pr.source = experiments.PickSource(g)
		a := ndgraph.NewSSSP(g, pr.source, pr.weightSeed)
		pr.algo, pr.weights = a, a.Weights
	default:
		return nil, fmt.Errorf("workload %s: unknown algorithm %q", cfg.w.Name, cfg.w.Algo)
	}
	return pr, nil
}

// kernel is the paired push/pull form of the problem's algorithm (traversals
// only: there is no PageRank kernel).
func (pr *problem) kernel() ndgraph.Kernel {
	switch pr.cfg.w.Algo {
	case "wcc":
		return ndgraph.WCCKernel()
	case "bfs":
		return ndgraph.BFSKernel(pr.source)
	}
	return ndgraph.SSSPKernel(pr.source, pr.weights)
}
