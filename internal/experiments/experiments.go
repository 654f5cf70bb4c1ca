// Package experiments reproduces the paper's evaluation (Section V): the
// Table I graph inventory, the Fig. 3 computing-time grid, and the
// Table II/III PageRank difference-degree studies, plus the extension
// experiments DESIGN.md calls out (conflict census, convergence-speed
// comparison, barrier-free executor comparison). The same functions back
// the top-level testing.B benchmarks and the ndbench CLI.
package experiments

import (
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Scale divides the paper's graph sizes (1 = full size; the default
	// CLI scale of 50 runs the whole suite in minutes).
	Scale int
	// Seed drives all synthetic inputs.
	Seed uint64
	// Threads is the worker-count sweep; the paper uses {4, 8, 16}, with
	// 1 and 2 added for scaling context.
	Threads []int
	// Runs is the number of independent runs per configuration in the
	// variance study (paper: 5).
	Runs int
	// Epsilons is the PageRank convergence-threshold sweep for
	// Tables II/III (paper: three decreasing values).
	Epsilons []float64
	// PageRankEps is the threshold used in Fig. 3 timing runs.
	PageRankEps float64
	// Observer, when non-nil, streams telemetry from the Fig. 3 timing
	// grid's engine runs (ndbench -telemetry / -telemetry-addr).
	Observer *obs.Observer
	// TracePath, when non-empty, makes the divergence study save each
	// algorithm's recorded run pair as TracePath-<algo>-a.ndt / -b.ndt.
	TracePath string
}

// DefaultConfig returns the defaults used by the CLI and benches.
func DefaultConfig() Config {
	return Config{
		Scale:       50,
		Seed:        42,
		Threads:     []int{1, 2, 4, 8, 16},
		Runs:        5,
		Epsilons:    []float64{1e-1, 1e-2, 1e-3},
		PageRankEps: 1e-3,
	}
}

// validate fills zero fields with defaults.
func (c *Config) validate() {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if len(c.Threads) == 0 {
		c.Threads = d.Threads
	}
	if c.Runs <= 0 {
		c.Runs = d.Runs
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = d.Epsilons
	}
	if c.PageRankEps <= 0 {
		c.PageRankEps = d.PageRankEps
	}
}

// Graphs synthesizes the four Table I analogs at the configured scale.
// The result map is keyed by dataset name.
func Graphs(cfg Config) (map[string]*graph.Graph, error) {
	cfg.validate()
	out := make(map[string]*graph.Graph, 4)
	for _, d := range gen.AllDatasets() {
		g, err := gen.Synthesize(d, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d, err)
		}
		out[d.String()] = g
	}
	return out, nil
}

// TableIRow is one graph's inventory line (paper Table I plus the
// synthetic analog's actual size).
type TableIRow struct {
	Name                string
	PaperV, PaperE      int
	SynthV, SynthE      int
	MaxInDeg, MaxOutDeg int
	DegreeSkew          float64
}

// TableI builds the graph-inventory table.
func TableI(cfg Config) ([]TableIRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]TableIRow, 0, len(gs))
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		st := g.ComputeStats()
		pv, pe := d.PaperSize()
		rows = append(rows, TableIRow{
			Name:   d.String(),
			PaperV: pv, PaperE: pe,
			SynthV: st.Vertices, SynthE: st.Edges,
			MaxInDeg: st.MaxInDeg, MaxOutDeg: st.MaxOutDeg,
			DegreeSkew: st.DegreeSkew,
		})
	}
	return rows, nil
}

// AlgoNames lists the four evaluated algorithms in paper order.
func AlgoNames() []string { return []string{"pagerank", "wcc", "sssp", "bfs"} }

// NewAlgorithm constructs the named algorithm for g using cfg's seeds and
// thresholds. SSSP/BFS use the highest-out-degree vertex as source so the
// traversal reaches a large fraction of every synthetic graph.
func NewAlgorithm(name string, g *graph.Graph, cfg Config) (algorithms.Algorithm, error) {
	cfg.validate()
	return algorithms.New(name, g, PickSource(g), cfg.PageRankEps, cfg.Seed)
}

// PickSource returns the vertex with the highest out-degree — a stable,
// well-connected traversal source for synthetic graphs.
func PickSource(g *graph.Graph) uint32 {
	best, bestDeg := uint32(0), -1
	for v := uint32(0); int(v) < g.N(); v++ {
		if d := g.OutDegree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// ExecKind identifies one execution configuration of Fig. 3.
type ExecKind struct {
	// Label is the figure legend entry ("DE", "NE-lock", "NE-arch",
	// "NE-atomic").
	Label string
	// Scheduler and Mode define the engine configuration.
	Scheduler sched.Kind
	Mode      edgedata.Mode
}

// ExecKinds returns the four Fig. 3 execution configurations: the
// deterministic baseline and nondeterministic execution under each of the
// three atomicity methods. Set includeAligned false under the race
// detector (ModeAligned's benign races trip it by design).
func ExecKinds(includeAligned bool) []ExecKind {
	kinds := []ExecKind{
		{Label: "DE", Scheduler: sched.Deterministic, Mode: edgedata.ModeSequential},
		{Label: "NE-lock", Scheduler: sched.Nondeterministic, Mode: edgedata.ModeLocked},
	}
	if includeAligned {
		kinds = append(kinds, ExecKind{Label: "NE-arch", Scheduler: sched.Nondeterministic, Mode: edgedata.ModeAligned})
	}
	kinds = append(kinds, ExecKind{Label: "NE-atomic", Scheduler: sched.Nondeterministic, Mode: edgedata.ModeAtomic})
	return kinds
}

// Fig3Cell is one bar of the Fig. 3 grid: the computing time of one
// algorithm on one graph under one execution configuration and thread
// count (graph-loading time excluded, as in the paper).
type Fig3Cell struct {
	Graph      string
	Algo       string
	Exec       string
	Threads    int
	Duration   time.Duration
	Iterations int
	Updates    int64
}

// Fig3 runs the computing-time grid. DE runs once per (graph, algo) —
// thread count is irrelevant to the sequential deterministic scheduler, as
// the paper notes ("the updates are actually conducted sequentially") —
// and NE configurations sweep cfg.Threads.
func Fig3(cfg Config, includeAligned bool) ([]Fig3Cell, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	var cells []Fig3Cell
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, algoName := range AlgoNames() {
			for _, kind := range ExecKinds(includeAligned) {
				threadSweep := cfg.Threads
				if kind.Scheduler == sched.Deterministic {
					threadSweep = []int{1}
				}
				for _, p := range threadSweep {
					a, err := NewAlgorithm(algoName, g, cfg)
					if err != nil {
						return nil, err
					}
					_, res, err := algorithms.Run(a, g, core.Options{
						Scheduler: kind.Scheduler,
						Threads:   p,
						Mode:      kind.Mode,
						Observer:  cfg.Observer,
					})
					if err != nil {
						return nil, err
					}
					if !res.Converged {
						return nil, fmt.Errorf("experiments: %s on %s (%s, P=%d) did not converge",
							algoName, d, kind.Label, p)
					}
					cells = append(cells, Fig3Cell{
						Graph: d.String(), Algo: algoName, Exec: kind.Label, Threads: p,
						Duration: res.Duration, Iterations: res.Iterations, Updates: res.Updates,
					})
				}
			}
		}
	}
	return cells, nil
}
