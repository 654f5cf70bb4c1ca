package main

import "ndgraph"

// dist: the in-process message-passing simulation — netdist over an
// in-memory transport on paper. A contender row on wcc-web.
func init() {
	register("dist", &tier{
		supports: func(algo string) bool { return algo == "wcc" },
		open: func(pr *problem, o *ndgraph.Observer) (solver, error) {
			return &distSolver{pr: pr, opts: ndgraph.DistOptions{Workers: pr.cfg.workers, Seed: pr.cfg.seed, Observer: o}}, nil
		},
	})
}

type distSolver struct {
	pr   *problem
	opts ndgraph.DistOptions
	out  []uint64
}

func (s *distSolver) load() error { return nil }

func (s *distSolver) solve() (counters, error) {
	labels, res, err := ndgraph.DistWCC(s.pr.g, s.opts)
	if err != nil {
		return counters{}, err
	}
	s.out = s.out[:0]
	for _, l := range labels {
		s.out = append(s.out, uint64(l))
	}
	return counters{converged: res.Converged, more: map[string]float64{"messages": float64(res.Messages)}}, nil
}

func (s *distSolver) words() []uint64 { return s.out }
func (s *distSolver) close()          {}
