package experiments

import (
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
)

// This file implements the ablation experiments DESIGN.md calls out: the
// design choices of the paper's system model that are assumptions rather
// than results, each varied in isolation.
//
//   - Dispatch: Fig. 1's static contiguous label blocks vs dynamic
//     chunked claiming. On skewed graphs the static policy can strand one
//     worker with all the hubs.
//   - Label order: the paper dispatches by label, so *which* vertices
//     carry small labels changes both load balance and the π order.
//     Compared: the generator's natural order, descending-degree
//     (adversarial: all hubs in worker 0's block), and degree-interleaved
//     (hubs dealt evenly).
//   - Amplifier: conflict counts with and without yield injection, to
//     show the amplifier changes interleaving frequency, not outcomes.

// AblationRow is one configuration's measurement.
type AblationRow struct {
	Study    string // "dispatch" or "labels"
	Graph    string
	Algo     string `col:"algorithm"`
	Variant  string
	Duration time.Duration `col:"time(s)"`
	Iters    int
	Updates  int64
}

// DispatchAblation compares static and dynamic dispatch for WCC and
// PageRank on the most skewed analog (web-berkstan).
func DispatchAblation(cfg Config) ([]AblationRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebBerkStan)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, d := range []sched.Dispatch{sched.Static, sched.Dynamic} {
		if rows, err = ablate(rows, "dispatch", d.String(), g, d, cfg); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// LabelOrderAblation compares label orders under static dispatch: the
// natural generator order, descending degree, and degree-interleaved.
// Traversal results must stay identical across orders (they are graph
// isomorphisms); only scheduling behavior may change.
func LabelOrderAblation(cfg Config) ([]AblationRow, error) {
	cfg.validate()
	base, err := synth(cfg, gen.WebBerkStan)
	if err != nil {
		return nil, err
	}
	hubFirst, err := graph.Relabel(base, graph.DegreeDescOrder(base))
	if err != nil {
		return nil, err
	}
	interleaved, err := graph.Relabel(base, graph.DegreeInterleaveOrder(base, 4))
	if err != nil {
		return nil, err
	}
	rows, err := ablate(nil, "labels", "natural", base, sched.Static, cfg)
	if err == nil {
		rows, err = ablate(rows, "labels", "degree-desc", hubFirst, sched.Static, cfg)
	}
	if err == nil {
		rows, err = ablate(rows, "labels", "degree-interleave", interleaved, sched.Static, cfg)
	}
	return rows, err
}

// ablate appends the rows of PageRank and WCC run nondeterministically
// (4 threads, atomic edge data, dispatch d) on one variant of the
// web-berkstan analog.
func ablate(rows []AblationRow, study, variant string, g *graph.Graph, d sched.Dispatch, cfg Config) ([]AblationRow, error) {
	for _, algoName := range []string{"pagerank", "wcc"} {
		a, err := NewAlgorithm(algoName, g, cfg)
		if err != nil {
			return nil, err
		}
		_, res, err := solve(a, g, core.Options{
			Scheduler: sched.Nondeterministic,
			Threads:   4,
			Mode:      edgedata.ModeAtomic,
			Dispatch:  d,
		})
		if err != nil {
			return nil, fmt.Errorf("%s ablation %s: %w", study, variant, err)
		}
		rows = append(rows, AblationRow{
			Study: study, Graph: gen.WebBerkStan.String(), Algo: algoName, Variant: variant,
			Duration: res.Duration, Iters: res.Iterations, Updates: res.Updates,
		})
	}
	return rows, nil
}

// AmplifierRow reports observed conflict counts with and without the race
// amplifier.
type AmplifierRow struct {
	Algo             string `col:"algorithm"`
	RWOff            uint64 `col:"RW off"`
	WWOff            uint64 `col:"WW off"`
	RWOn             uint64 `col:"RW on"`
	WWOn             uint64 `col:"WW on"`
	ResultsIdentical bool   `col:"results identical"` // for traversal algorithms
}

// AmplifierAblation measures observed (not potential) conflicts for WCC
// under nondeterministic execution with the amplifier off and on, and
// verifies the converged labels stay correct either way.
func AmplifierAblation(cfg Config) ([]AmplifierRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, err
	}
	want := algorithms.ReferenceWCC(g)
	var rows []AmplifierRow
	row := AmplifierRow{Algo: "wcc", ResultsIdentical: true}
	for _, amplify := range []bool{false, true} {
		wcc := algorithms.NewWCC()
		e, res, err := solve(wcc, g, core.Options{
			Scheduler:    sched.Nondeterministic,
			Threads:      8,
			Mode:         edgedata.ModeAtomic,
			Amplify:      amplify,
			EnableCensus: true,
		})
		if err != nil {
			return nil, err
		}
		got := wcc.Components(e)
		for v := range want {
			if got[v] != want[v] {
				row.ResultsIdentical = false
			}
		}
		if amplify {
			row.RWOn, row.WWOn = res.RWConflicts, res.WWConflicts
		} else {
			row.RWOff, row.WWOff = res.RWConflicts, res.WWConflicts
		}
	}
	rows = append(rows, row)
	return rows, nil
}
