package main

import (
	"math"

	"ndgraph"
)

// push.Engine: frontier push with CAS combine — hybrid under an always-push
// policy on paper. A contender row on bfs-banded; the facade's one-shot
// entry point builds the engine inside the timed call.
func init() {
	register("push", &tier{
		supports: func(algo string) bool { return algo == "bfs" },
		open: func(pr *problem, _ *ndgraph.Observer) (solver, error) {
			return &pushSolver{pr: pr}, nil
		},
	})
}

type pushSolver struct {
	pr  *problem
	out []uint64
}

func (s *pushSolver) load() error { return nil }

func (s *pushSolver) solve() (counters, error) {
	dists, res, err := ndgraph.PushBFS(s.pr.g, s.pr.source, ndgraph.PushModeCAS, s.pr.cfg.workers)
	if err != nil {
		return counters{}, err
	}
	s.out = s.out[:0]
	for _, d := range dists {
		s.out = append(s.out, math.Float64bits(d))
	}
	return counters{converged: res.Converged, iterations: res.Iterations, updates: res.Wins}, nil
}

func (s *pushSolver) words() []uint64 { return s.out }
func (s *pushSolver) close()          {}
