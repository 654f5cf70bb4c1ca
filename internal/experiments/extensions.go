package experiments

import (
	"fmt"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/metrics"
	"ndgraph/internal/sched"
)

// This file implements the extension experiments DESIGN.md lists beyond
// the paper's own tables and figures: the conflict census (quantifying the
// Section III conflict classes per algorithm), the convergence-speed
// comparison (future-work item 3), and the top-K rank agreement behind the
// paper's "top pages identical" observation.

// CensusRow reports one algorithm's conflict classes and eligibility
// verdict on one graph.
type CensusRow struct {
	Graph   string
	Algo    string `col:"algorithm"`
	RW      uint64 `col:"RW edges"`
	WW      uint64 `col:"WW edges"`
	Verdict string
}

// ConflictCensus probes every evaluated algorithm (plus SpMV and the
// deliberately ineligible coloring) on every dataset analog.
func ConflictCensus(cfg Config) ([]CensusRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	names := append(AlgoNames(), "spmv", "kcore", "labelprop", "coloring")
	var rows []CensusRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, name := range names {
			a, err := NewAlgorithm(name, g, cfg)
			if err != nil {
				return nil, err
			}
			profile, verdict, err := algorithms.Probe(a, g)
			if err != nil {
				return nil, err
			}
			label := "not eligible"
			if verdict.Eligible {
				label = fmt.Sprintf("eligible (Thm %d)", verdict.Theorem)
				if verdict.DeterministicResults {
					label += ", exact"
				}
			}
			rows = append(rows, CensusRow{
				Graph: d.String(), Algo: name,
				RW: profile.RW, WW: profile.WW, Verdict: label,
			})
		}
	}
	return rows, nil
}

// IterRow compares iterations-to-convergence across execution models for
// one algorithm on one graph (the paper's motivation: "synchronous model
// generally needs to conduct more iterations than asynchronous model").
type IterRow struct {
	Graph      string
	Algo       string `col:"algorithm"`
	SyncIter   int    `col:"sync (BSP)"`
	DetIter    int    `col:"det (GS)"`
	NondetIter int    `col:"nondet (4 threads)"`
}

// ConvergenceSpeed measures iterations under BSP, deterministic
// Gauss–Seidel, and nondeterministic execution.
func ConvergenceSpeed(cfg Config) ([]IterRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	var rows []IterRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, name := range AlgoNames() {
			var iters [3]int
			for i, opts := range []core.Options{
				{Scheduler: sched.Synchronous, Threads: 1},
				{Scheduler: sched.Deterministic},
				{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic},
			} {
				a, err := NewAlgorithm(name, g, cfg)
				if err != nil {
					return nil, err
				}
				_, res, err := solve(a, g, opts)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", d, err)
				}
				iters[i] = res.Iterations
			}
			rows = append(rows, IterRow{Graph: d.String(), Algo: name, SyncIter: iters[0], DetIter: iters[1], NondetIter: iters[2]})
		}
	}
	return rows, nil
}

// TopKRow reports rank agreement between DE and NE PageRank orderings.
type TopKRow struct {
	Epsilon   float64 `col:"ε"`
	K         int     `col:"K"`
	Agreement float64 // fraction of identical positions in the top K
}

// TopKAgreementStudy quantifies the paper's closing observation of
// Section V-C: high-rank pages agree across configurations.
func TopKAgreementStudy(cfg Config, ks []int) ([]TopKRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, err
	}
	deCfg := cfg
	deCfg.Runs = 1
	var rows []TopKRow
	for _, eps := range cfg.Epsilons {
		de, err := FixedPointOrderings(g, "pagerank", deCfg, eps, 1, true)
		if err != nil {
			return nil, err
		}
		ne, err := FixedPointOrderings(g, "pagerank", cfg, eps, 16, false)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			agree := 0.0
			for _, ord := range ne {
				agree += metrics.TopKAgreement(de[0], ord, k)
			}
			rows = append(rows, TopKRow{Epsilon: eps, K: k, Agreement: agree / float64(len(ne))})
		}
	}
	return rows, nil
}
