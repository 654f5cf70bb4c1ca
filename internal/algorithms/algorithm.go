// Package algorithms implements the graph algorithms of the paper's
// evaluation (Section V) on top of the core engine:
//
//   - PageRank — fixed-point iteration with local ε-convergence; only
//     read-write conflicts under nondeterministic execution (Theorem 1);
//   - WCC — weakly connected components by minimum-label propagation; both
//     read-write and write-write conflicts (Theorem 2);
//   - SSSP — single-source shortest paths with random edge weights;
//     read-write conflicts only;
//   - BFS — SSSP with unit weights;
//   - SpMV — Jacobi-style sparse fixed-point solve, the paper's other
//     fixed-point example;
//   - Coloring — greedy vertex coloring, included as a deliberately
//     NOT-eligible algorithm (write-write conflicts without monotonicity).
//
// Each algorithm declares the eligibility.Properties the paper's theorems
// consume, provides a Setup (initial vertex/edge values + frontier), an
// Update (the pull-mode gather–compute–scatter function of Algorithm 1),
// and an independent sequential reference implementation used by the tests
// to check converged results.
package algorithms

import (
	"fmt"

	"ndgraph/internal/core"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
)

// Algorithm is the uniform surface consumed by the CLIs, the benchmark
// harness, and the eligibility prober.
type Algorithm interface {
	// Name returns the algorithm's short name (as used in the paper).
	Name() string
	// Setup initializes the engine's vertex array, edge store, and
	// frontier for a fresh run.
	Setup(e *core.Engine)
	// Update is the vertex update function f(v).
	Update(ctx core.VertexView)
	// Properties declares the theorem premises for the eligibility advisor.
	Properties() eligibility.Properties
}

// New constructs the built-in algorithm called name for g: PageRank and
// SpMV stop at local threshold eps, SSSP and BFS start from source, and
// the random SSSP weights and SpMV coefficients derive from seed (seed+1
// and seed+2). Every CLI, the experiments and trace replay build their
// algorithms here, so a recorded run is rebuilt exactly. A source that is
// not a vertex of g is an error for SSSP and BFS.
func New(name string, g *graph.Graph, source uint32, eps float64, seed uint64) (Algorithm, error) {
	if (name == "sssp" || name == "bfs") && int64(source) >= int64(g.N()) {
		return nil, fmt.Errorf("algorithms: %s source %d is not a vertex of a %d-vertex graph", name, source, g.N())
	}
	switch name {
	case "pagerank":
		return NewPageRank(eps), nil
	case "wcc":
		return NewWCC(), nil
	case "sssp":
		return NewSSSP(g, source, seed+1), nil
	case "bfs":
		return NewBFS(g, source), nil
	case "spmv":
		return NewSpMV(g, eps, 0.5, seed+2), nil
	case "kcore":
		return NewKCore(), nil
	case "labelprop":
		return NewLabelProp(), nil
	case "coloring":
		return NewColoring(), nil
	}
	return nil, fmt.Errorf("algorithms: unknown algorithm %q", name)
}

// Run builds an engine for g with opts, sets the algorithm up, executes it
// to convergence, and returns the engine (holding final state) plus the
// run result. A NoSync run without opts.Verdict is admitted (or refused)
// by NoSyncVerdict(a, g).
func Run(a Algorithm, g *graph.Graph, opts core.Options) (*core.Engine, core.Result, error) {
	if opts.Scheduler == sched.NoSync && opts.Verdict == nil {
		v, err := NoSyncVerdict(a, g)
		if err != nil {
			return nil, core.Result{}, err
		}
		opts.Verdict = &v
	}
	e, err := core.NewEngine(g, opts)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("algorithms: %s: %w", a.Name(), err)
	}
	a.Setup(e)
	res, err := e.Run(a.Update)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("algorithms: %s: %w", a.Name(), err)
	}
	return e, res, nil
}

// Probe performs one instrumented deterministic run of a on g and returns
// the *potential* conflict profile together with the advisor's verdict —
// the end-to-end answer to "is this algorithm eligible for
// nondeterministic execution?". The potential census replays every update
// against the pre-iteration state (the overlapped ∥ case of the system
// model), so conflicts that an in-order execution would mask — such as
// WCC's conditional edge writes on label-descending graphs — are still
// counted, while the run itself converges deterministically.
func Probe(a Algorithm, g *graph.Graph) (eligibility.ConflictProfile, eligibility.Verdict, error) {
	e, err := core.NewEngine(g, core.Options{PotentialCensus: true})
	if err != nil {
		return eligibility.ConflictProfile{}, eligibility.Verdict{}, err
	}
	a.Setup(e)
	res, err := e.Run(a.Update)
	if err != nil {
		return eligibility.ConflictProfile{}, eligibility.Verdict{}, err
	}
	profile := eligibility.ConflictProfile{RW: res.RWConflicts, WW: res.WWConflicts}
	verdict := eligibility.Advise(a.Properties(), profile)
	verdict.Source = "probe"
	return profile, verdict, nil
}
