package main

import "ndgraph"

// coreOptions are the barrier-based core engine's five configurations: the
// gated det (the paper's DE, one thread) and nondet (the paper's NE:
// ModeAtomic, static blocks, P workers), plus locked, aligned (the paper's
// other two atomicity methods) and dynamic (chunked dispatch), which are
// contender rows everywhere; dynamic is also pr-social's alt tier.
var coreOptions = map[string]ndgraph.Options{
	"det":     {Scheduler: ndgraph.Deterministic},
	"nondet":  {Scheduler: ndgraph.Nondeterministic, Mode: ndgraph.ModeAtomic},
	"locked":  {Scheduler: ndgraph.Nondeterministic, Mode: ndgraph.ModeLocked},
	"aligned": {Scheduler: ndgraph.Nondeterministic, Mode: ndgraph.ModeAligned},
	"dynamic": {Scheduler: ndgraph.Nondeterministic, Mode: ndgraph.ModeAtomic, Dispatch: ndgraph.Dynamic},
}

func init() {
	for name, opts := range coreOptions {
		opts := opts
		register(name, &tier{supports: anyAlgo, open: func(pr *problem, o *ndgraph.Observer) (solver, error) {
			return openCore(pr, opts, o)
		}})
	}
}

type coreSolver struct {
	e    *ndgraph.Engine
	algo ndgraph.Algorithm
}

func openCore(pr *problem, opts ndgraph.Options, o *ndgraph.Observer) (*coreSolver, error) {
	opts.Threads = pr.cfg.workers
	opts.Observer = o
	e, err := ndgraph.NewEngine(pr.g, opts)
	if err != nil {
		return nil, err
	}
	return &coreSolver{e: e, algo: pr.algo}, nil
}

func (s *coreSolver) load() error {
	s.e.Reset()
	s.algo.Setup(s.e)
	return nil
}

func (s *coreSolver) solve() (counters, error) {
	res, err := s.e.Run(s.algo.Update)
	return counters{converged: res.Converged, iterations: res.Iterations, updates: res.Updates}, err
}

func (s *coreSolver) words() []uint64 { return s.e.Vertices }
func (s *coreSolver) close()          { s.e.Close() }
