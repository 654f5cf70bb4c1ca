// Package experiments reproduces the paper's evaluation (Section V): the
// Table I graph inventory, the Fig. 3 computing-time grid, and the
// Table II/III PageRank difference-degree studies, plus extension studies
// that each test a paper claim or future-work item on a surviving
// execution tier. Studies() is the one registry of them; the ndbench CLI
// runs it and prints every result through WriteTables.
package experiments

import (
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/metrics"
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
	// variance study (paper: 5) and per Fig. 3 cell.
	Runs int
	// Epsilons is the PageRank convergence-threshold sweep for
	// Tables II/III (paper: three decreasing values).
	Epsilons []float64
	// PageRankEps is the threshold used in Fig. 3 timing runs.
	PageRankEps float64
	// NoAligned drops Fig. 3's NE-arch configuration (ModeAligned's
	// benign races trip the race detector by design).
	NoAligned bool
	// Observer, when non-nil, streams telemetry from the Fig. 3 timing
	// grid's engine runs (ndbench -telemetry / -telemetry-addr).
	Observer *obs.Observer
	// TracePath, when non-empty, makes the divergence study save each
	// algorithm's recorded run pair as TracePath-<algo>-a.ndt / -b.ndt.
	TracePath string
}

// DefaultConfig returns the defaults the CLI starts from.
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
	Name       string  `col:"graph"`
	PaperV     int     `col:"paper |V|"`
	PaperE     int     `col:"paper |E|"`
	SynthV     int     `col:"synth |V|"`
	SynthE     int     `col:"synth |E|"`
	MaxInDeg   int     `col:"max in"`
	MaxOutDeg  int     `col:"max out"`
	DegreeSkew float64 `col:"skew"`
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

// solve runs a to its fixed point under opts. A run that stops without
// converging is an error: every study reads converged results.
func solve(a algorithms.Algorithm, g *graph.Graph, opts core.Options) (*core.Engine, core.Result, error) {
	e, res, err := algorithms.Run(a, g, opts)
	if err == nil && !res.Converged {
		err = fmt.Errorf("experiments: %s (%v, P=%d) did not converge", a.Name(), opts.Scheduler, opts.Threads)
	}
	return e, res, err
}

// synth synthesizes one dataset analog at the configured scale.
func synth(cfg Config, d gen.Dataset) (*graph.Graph, error) {
	return gen.Synthesize(d, cfg.Scale, cfg.Seed)
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
// three atomicity methods, NE-arch only when includeAligned.
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
// count (graph-loading time excluded, as in the paper), over Runs runs.
type Fig3Cell struct {
	Graph   string
	Algo    string
	Exec    string
	Threads int
	Runs    int `col:"n"`
	// Duration is the median run time; Q1 and Q3 are its quartiles.
	Duration time.Duration `col:"median(s)"`
	Q1       time.Duration `col:"q1(s)"`
	Q3       time.Duration `col:"q3(s)"`
	// Iterations and Updates are the last run's.
	Iterations int `col:"iters"`
	Updates    int64
}

// Fig3 runs the computing-time grid, cfg.Runs times per cell. DE runs at
// one thread per (graph, algo) — thread count is irrelevant to the
// sequential deterministic scheduler, as the paper notes ("the updates are
// actually conducted sequentially") — and NE configurations sweep
// cfg.Threads.
func Fig3(cfg Config) ([]Fig3Cell, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	var cells []Fig3Cell
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, algoName := range AlgoNames() {
			for _, kind := range ExecKinds(!cfg.NoAligned) {
				threadSweep := cfg.Threads
				if kind.Scheduler == sched.Deterministic {
					threadSweep = []int{1}
				}
				for _, p := range threadSweep {
					cell := Fig3Cell{Graph: d.String(), Algo: algoName, Exec: kind.Label, Threads: p, Runs: cfg.Runs}
					times := make([]float64, cfg.Runs)
					for r := range times {
						a, err := NewAlgorithm(algoName, g, cfg)
						if err != nil {
							return nil, err
						}
						_, res, err := solve(a, g, core.Options{
							Scheduler: kind.Scheduler,
							Threads:   p,
							Mode:      kind.Mode,
							Observer:  cfg.Observer,
						})
						if err != nil {
							return nil, fmt.Errorf("%s on %s (%s): %w", algoName, d, kind.Label, err)
						}
						times[r] = float64(res.Duration)
						cell.Iterations, cell.Updates = res.Iterations, res.Updates
					}
					s := metrics.Summarize(times)
					cell.Duration, cell.Q1, cell.Q3 = time.Duration(s.Median), time.Duration(s.Q1), time.Duration(s.Q3)
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, nil
}
