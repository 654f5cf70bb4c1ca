package main

import "ndgraph"

// async.NoSync: barrier-free work stealing, P workers, admitted on the
// algorithm's embedded eligibility certificate (no probe run).
func init() {
	register("nosync", &tier{supports: anyAlgo, open: openNoSync})
}

type noSyncSolver struct {
	x *ndgraph.NoSyncExecutor
	// seed holds the algorithm's initial state, set up once; load
	// transplants it.
	seed *ndgraph.Engine
	algo ndgraph.Algorithm
}

func openNoSync(pr *problem, o *ndgraph.Observer) (solver, error) {
	cert, err := ndgraph.CertificateFor("update", pr.algo.Name())
	if err != nil {
		return nil, err
	}
	seed, err := ndgraph.NewEngine(pr.g, ndgraph.Options{})
	if err != nil {
		return nil, err
	}
	pr.algo.Setup(seed)
	x, err := ndgraph.NewNoSyncExecutor(pr.g, ndgraph.NoSyncOptions{
		Threads: pr.cfg.workers, Mode: ndgraph.ModeAtomic, Certificate: cert, Observer: o,
	})
	if err != nil {
		return nil, err
	}
	return &noSyncSolver{x: x, seed: seed, algo: pr.algo}, nil
}

func (s *noSyncSolver) load() error { return s.x.LoadFrom(s.seed) }

func (s *noSyncSolver) solve() (counters, error) {
	res, err := s.x.Run(s.algo.Update)
	return counters{converged: res.Converged, updates: res.Updates, more: map[string]float64{
		"steals": float64(res.Steals), "idle_transitions": float64(res.IdleTransitions),
	}}, err
}

func (s *noSyncSolver) words() []uint64 { return s.x.Vertices }
func (s *noSyncSolver) close()          { s.x.Close(); s.seed.Close() }
