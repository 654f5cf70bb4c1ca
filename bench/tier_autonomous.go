package main

import (
	"math"

	"ndgraph"
)

// autonomous.Engine: priority-driven sequential execution (Dijkstra as a
// schedule). A contender row on the SSSP comparator graph.
func init() {
	register("autonomous", &tier{
		supports: func(algo string) bool { return algo == "sssp" },
		open: func(pr *problem, _ *ndgraph.Observer) (solver, error) {
			return &autonomousSolver{pr: pr}, nil
		},
	})
}

type autonomousSolver struct {
	pr  *problem
	out []uint64
}

func (s *autonomousSolver) load() error { return nil }

func (s *autonomousSolver) solve() (counters, error) {
	dists, res, err := ndgraph.AutonomousSSSP(s.pr.g, s.pr.source, s.pr.weights)
	if err != nil {
		return counters{}, err
	}
	s.out = s.out[:0]
	for _, d := range dists {
		s.out = append(s.out, math.Float64bits(d))
	}
	return counters{converged: res.Converged, updates: res.Updates}, nil
}

func (s *autonomousSolver) words() []uint64 { return s.out }
func (s *autonomousSolver) close()          {}
