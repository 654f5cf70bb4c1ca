package main

import (
	"fmt"
	"math"

	"ndgraph/internal/algorithms"
)

// pageRankTol is the differential suite's pinned PageRank tolerance
// (ndgraph_diff_test.go, TestCrossEngineDifferentialPageRank): absolute
// distance from the power-iteration oracle at ε = 1e-12. Not a new constant.
const pageRankTol = 0.02

// oracle holds the sequential reference result of a problem. WCC, BFS and
// SSSP fixed points are execution-model independent, so every executor must
// match them bit for bit; PageRank must land within pageRankTol.
type oracle struct {
	algo   string
	labels []uint32  // wcc: union-find, minimum vertex id per component
	bits   []uint64  // bfs, sssp: Float64bits of Dijkstra distances
	ranks  []float64 // pagerank: power iteration
}

func newOracle(pr *problem) *oracle {
	o := &oracle{algo: pr.cfg.w.Algo}
	switch o.algo {
	case "wcc":
		o.labels = algorithms.ReferenceWCC(pr.g)
	case "pagerank":
		o.ranks = algorithms.ReferencePageRank(pr.g, 0.85, 1e-12, 20000)
	default:
		for _, d := range algorithms.ReferenceSSSP(pr.g, pr.source, pr.weights) {
			o.bits = append(o.bits, math.Float64bits(d))
		}
	}
	return o
}

// check judges one solve: a run error, a run that did not converge, or the
// first vertex whose value is wrong.
func (o *oracle) check(workload, tier string, c counters, runErr error, words []uint64) error {
	if runErr != nil {
		return fmt.Errorf("%s on %s: %w", tier, workload, runErr)
	}
	if !c.converged {
		return fmt.Errorf("%s on %s: did not converge", tier, workload)
	}
	switch o.algo {
	case "wcc":
		for v, want := range o.labels {
			if got := uint32(words[v]); got != want {
				return fmt.Errorf("%s on %s: vertex %d has label %d, reference %d", tier, workload, v, got, want)
			}
		}
	case "pagerank":
		for v, want := range o.ranks {
			if got := math.Float64frombits(words[v]); !(math.Abs(got-want) <= pageRankTol) {
				return fmt.Errorf("%s on %s: vertex %d has rank %v, reference %v (tolerance %v)", tier, workload, v, got, want, pageRankTol)
			}
		}
	default:
		for v, want := range o.bits {
			if words[v] != want {
				return fmt.Errorf("%s on %s: vertex %d has distance %v, reference %v", tier, workload, v,
					math.Float64frombits(words[v]), math.Float64frombits(want))
			}
		}
	}
	return nil
}

// linfErr is the largest absolute distance from the reference ranks; zero for
// the exact algorithms, whose check is equality.
func (o *oracle) linfErr(words []uint64) float64 {
	worst := 0.0
	for v, want := range o.ranks {
		worst = math.Max(worst, math.Abs(math.Float64frombits(words[v])-want))
	}
	return worst
}
