package main

import (
	"context"
	"fmt"
	"os"

	"ndgraph"
)

// netdist.Run with two LocalLauncher workers over loopback TCP. The timed
// call is the whole job: launch, handshake, each worker rebuilding the graph
// from the generative spec, the run, the termination sweeps and teardown.
func init() {
	register("netdist", &tier{supports: anyAlgo, open: openNetDist})
}

const netDistWorkers = 2

type netDistSolver struct {
	opts ndgraph.NetDistOptions
	tmp  string
	res  *ndgraph.NetDistResult
}

func openNetDist(pr *problem, o *ndgraph.Observer) (solver, error) {
	if pr.spec.Kind == "" {
		return nil, fmt.Errorf("netdist workers rebuild the graph from a generative spec; %s has none", pr.cfg.w.Name)
	}
	algo := ndgraph.NetDistAlgo{Name: pr.cfg.w.Algo, Source: pr.source, WeightSeed: pr.weightSeed, Eps: pageRankEps}
	return &netDistSolver{tmp: pr.cfg.tmp, opts: ndgraph.NetDistOptions{
		Workers: netDistWorkers, Graph: pr.spec, Algo: algo, Observer: o,
	}}, nil
}

func (s *netDistSolver) load() error { return nil }

func (s *netDistSolver) solve() (counters, error) {
	// Run's default checkpoint root is a fresh directory under the system
	// temp dir, removed on return; do the same inside the checkout.
	dir, err := os.MkdirTemp(s.tmp, "netdist-*")
	if err != nil {
		return counters{}, err
	}
	defer os.RemoveAll(dir)
	s.opts.Dir = dir
	res, err := ndgraph.NetDistRun(context.Background(), s.opts)
	if err != nil {
		return counters{}, err
	}
	s.res = res
	return counters{converged: true, more: map[string]float64{
		"sweeps": float64(res.Sweeps), "restarts": float64(res.Restarts),
	}}, nil
}

func (s *netDistSolver) words() []uint64 { return s.res.Values }
func (s *netDistSolver) close()          {}
