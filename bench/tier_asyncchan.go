package main

import "ndgraph"

// async.Executor: the channel-queue barrier-free executor, a contender row
// next to nosync.
func init() {
	register("async-chan", &tier{supports: anyAlgo, open: openAsyncChan})
}

type asyncChanSolver struct {
	x    *ndgraph.AsyncExecutor
	seed *ndgraph.Engine
	algo ndgraph.Algorithm
}

func openAsyncChan(pr *problem, o *ndgraph.Observer) (solver, error) {
	seed, err := ndgraph.NewEngine(pr.g, ndgraph.Options{})
	if err != nil {
		return nil, err
	}
	pr.algo.Setup(seed)
	x, err := ndgraph.NewAsyncExecutor(pr.g, ndgraph.AsyncOptions{
		Threads: pr.cfg.workers, Mode: ndgraph.ModeAtomic, Observer: o,
	})
	if err != nil {
		return nil, err
	}
	return &asyncChanSolver{x: x, seed: seed, algo: pr.algo}, nil
}

func (s *asyncChanSolver) load() error { return s.x.LoadFrom(s.seed) }

func (s *asyncChanSolver) solve() (counters, error) {
	res, err := s.x.Run(s.algo.Update)
	return counters{converged: res.Converged, updates: res.Updates}, err
}

func (s *asyncChanSolver) words() []uint64 { return s.x.Vertices }
func (s *asyncChanSolver) close()          { s.x.Close(); s.seed.Close() }
