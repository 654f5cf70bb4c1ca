package experiments

import (
	"fmt"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/metrics"
	"ndgraph/internal/sched"
)

// This file reproduces Section V-C: the run-to-run variance of PageRank
// results under nondeterministic execution, measured as difference degrees
// of the converged rank orderings (Tables II and III). The paper's
// configurations are DE (deterministic) and NE with 4, 8, and 16
// processing cores; each configuration runs 5 times. Every NE run here
// enables the race amplifier (Amplify): injected scheduler yields stand in
// for the scheduling noise the paper's 16 physical cores produce, so NE
// variance numbers depend on it; DE numbers do not.

// VarianceConfigName labels a variance-study configuration.
func VarianceConfigName(threads int, deterministic bool) string {
	if deterministic {
		return "DE"
	}
	return fmt.Sprintf("%dNE", threads)
}

// VarianceRow is one (pair, ε) line of Table II or III: the distribution of
// difference degrees over every run pair. The paper prints the mean; the
// median and quartiles say whether one pair owns it.
type VarianceRow struct {
	// Pair names the compared configurations, e.g. "4NE vs. 4NE" (Table
	// II, within one configuration) or "DE vs. 16NE" (Table III, across
	// configurations).
	Pair    string
	Epsilon float64 `col:"ε"`
	// Pairs is the number of run pairs: C(runs, 2) within a configuration,
	// runs² across two.
	Pairs  int `col:"n"`
	Median float64
	Q1     float64
	Q3     float64
	Mean   float64
}

func varianceRow(pair string, eps float64, degrees []float64) VarianceRow {
	s := metrics.Summarize(degrees)
	return VarianceRow{Pair: pair, Epsilon: eps, Pairs: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3, Mean: s.Mean}
}

// varianceConfigs are the paper's four configurations.
type varianceConfig struct {
	threads       int
	deterministic bool
}

func paperVarianceConfigs() []varianceConfig {
	return []varianceConfig{
		{threads: 1, deterministic: true}, // DE
		{threads: 4},                      // 4NE
		{threads: 8},                      // 8NE
		{threads: 16},                     // 16NE
	}
}

// VarianceTables computes Tables II and III in one pass (sharing the
// underlying runs) on the web-google analog: Table II holds difference
// degrees within each configuration, Table III across configurations, one
// row per pair and ε.
func VarianceTables(cfg Config) (tableII, tableIII []VarianceRow, err error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, nil, err
	}
	configs := paperVarianceConfigs()
	names := make([]string, len(configs))
	for ci, vc := range configs {
		names[ci] = VarianceConfigName(vc.threads, vc.deterministic)
	}
	for _, eps := range cfg.Epsilons {
		runs := make([][][]uint32, len(configs))
		for ci, vc := range configs {
			if runs[ci], err = FixedPointOrderings(g, "pagerank", cfg, eps, vc.threads, vc.deterministic); err != nil {
				return nil, nil, err
			}
		}
		for i := range configs {
			tableII = append(tableII, varianceRow(names[i]+" vs. "+names[i], eps, metrics.PairwiseDifferenceDegrees(runs[i])))
			for j := i + 1; j < len(configs); j++ {
				tableIII = append(tableIII, varianceRow(names[i]+" vs. "+names[j], eps, metrics.CrossDifferenceDegrees(runs[i], runs[j])))
			}
		}
	}
	return tableII, tableIII, nil
}

// FixedPointOrderings runs a value-producing fixed-point algorithm
// ("pagerank" or "spmv") cfg.Runs times under one configuration and
// returns the converged value orderings — SpMV addressing the paper's
// closing caveat that its PageRank variance conclusions "may not apply to
// other fixed point iteration algorithms". Nondeterministic runs enable the
// race amplifier.
func FixedPointOrderings(g *graph.Graph, algoName string, cfg Config, eps float64, threads int, deterministic bool) ([][]uint32, error) {
	cfg.validate()
	opts := core.Options{Scheduler: sched.Deterministic}
	if !deterministic {
		opts = core.Options{
			Scheduler: sched.Nondeterministic,
			Threads:   threads,
			Mode:      edgedata.ModeAtomic,
			Amplify:   true,
		}
	}
	out := make([][]uint32, 0, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		var values []float64
		switch algoName {
		case "pagerank":
			pr := algorithms.NewPageRank(eps)
			e, _, err := solve(pr, g, opts)
			if err != nil {
				return nil, err
			}
			values = pr.Ranks(e)
		case "spmv":
			sv := algorithms.NewSpMV(g, eps, 0.5, cfg.Seed+2)
			e, _, err := solve(sv, g, opts)
			if err != nil {
				return nil, err
			}
			values = sv.Values(e)
		default:
			return nil, fmt.Errorf("experiments: %q is not a value-producing fixed-point algorithm", algoName)
		}
		out = append(out, metrics.RankOrder(values))
	}
	return out, nil
}

// FixedPointVarianceRow compares PageRank and SpMV run-to-run variance
// under the same nondeterministic configuration.
type FixedPointVarianceRow struct {
	Algo     string  `col:"algorithm"`
	Epsilon  float64 `col:"ε"`
	MeanDiff float64 `col:"mean diff degree"` // mean pairwise difference degree
	Footrule float64 `col:"mean footrule"`    // mean pairwise Spearman footrule
}

// FixedPointVariance measures both fixed-point algorithms at each ε on
// the web-google analog (16 nondeterministic threads, the paper's most
// perturbed configuration).
func FixedPointVariance(cfg Config) ([]FixedPointVarianceRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, err
	}
	var rows []FixedPointVarianceRow
	for _, algoName := range []string{"pagerank", "spmv"} {
		for _, eps := range cfg.Epsilons {
			ords, err := FixedPointOrderings(g, algoName, cfg, eps, 16, false)
			if err != nil {
				return nil, err
			}
			foot, pairs := 0.0, 0
			for i := 0; i < len(ords); i++ {
				for j := i + 1; j < len(ords); j++ {
					foot += metrics.SpearmanFootrule(ords[i], ords[j])
					pairs++
				}
			}
			if pairs > 0 {
				foot /= float64(pairs)
			}
			rows = append(rows, FixedPointVarianceRow{
				Algo: algoName, Epsilon: eps,
				MeanDiff: metrics.MeanPairwiseDifferenceDegree(ords),
				Footrule: foot,
			})
		}
	}
	return rows, nil
}

// PrecisionRow quantifies the paper's future-work item 2 — "more
// discussions (e.g., on precision, range of errors) on the variations in
// the results of fixed point iteration algorithms" — as the empirical
// error of nondeterministically converged PageRank vectors against the
// true fixed point.
type PrecisionRow struct {
	Epsilon         float64 `col:"ε"`
	Threads         int
	MaxLInf         float64 `col:"max L∞ error"`  // worst run's max component error vs the fixed point
	MeanLInf        float64 `col:"mean L∞ error"` // mean over runs
	MeanL1PerVertex float64 `col:"mean L1/vertex"`
}

// PrecisionStudy runs PageRank nondeterministically at each ε and
// measures component-wise error against a tightly converged reference on
// the web-google analog. The paper's local-convergence argument predicts
// the error scales with ε (each vertex stops within ε of its fixed
// point, and neighbors amplify by at most the damping geometric series).
func PrecisionStudy(cfg Config) ([]PrecisionRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, err
	}
	truth := algorithms.ReferencePageRank(g, 0.85, 1e-13, 50000)
	var rows []PrecisionRow
	for _, eps := range cfg.Epsilons {
		for _, threads := range []int{4, 16} {
			var linfs, l1s []float64
			for i := 0; i < cfg.Runs; i++ {
				pr := algorithms.NewPageRank(eps)
				e, _, err := solve(pr, g, core.Options{
					Scheduler: sched.Nondeterministic,
					Threads:   threads,
					Mode:      edgedata.ModeAtomic,
					Amplify:   true,
				})
				if err != nil {
					return nil, err
				}
				ranks := pr.Ranks(e)
				linfs = append(linfs, metrics.LInfDistance(ranks, truth))
				l1s = append(l1s, metrics.L1Distance(ranks, truth)/float64(g.N()))
			}
			sLinf := metrics.Summarize(linfs)
			rows = append(rows, PrecisionRow{
				Epsilon: eps, Threads: threads,
				MaxLInf: sLinf.Max, MeanLInf: sLinf.Mean,
				MeanL1PerVertex: metrics.Summarize(l1s).Mean,
			})
		}
	}
	return rows, nil
}
