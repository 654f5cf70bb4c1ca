package main

import (
	"context"

	"ndgraph"
)

// hybrid.Engine: direction-optimising push/pull under the default Beamer
// policy, admitted on the kernel's embedded certificate. Traversals only —
// there is no PageRank kernel.
func init() {
	register("hybrid", &tier{supports: traversalOnly, open: openHybrid})
}

type hybridSolver struct {
	e *ndgraph.HybridEngine
	k ndgraph.Kernel
}

func openHybrid(pr *problem, o *ndgraph.Observer) (solver, error) {
	k := pr.kernel()
	cert, err := ndgraph.CertificateFor("kernel", k.Name)
	if err != nil {
		return nil, err
	}
	g := pr.g
	if k.Undirected {
		// WCC's kernel contract: offers travel against edge direction too.
		g = pr.undirected()
	}
	e, err := ndgraph.NewHybridEngine(g, pr.cfg.workers)
	if err != nil {
		return nil, err
	}
	e.Certify(cert)
	e.Observe(o)
	return &hybridSolver{e: e, k: k}, nil
}

// load is empty: Run itself applies the kernel's Init, so hybrid's solve_s
// includes initialising the vertex words.
func (s *hybridSolver) load() error { return nil }

func (s *hybridSolver) solve() (counters, error) {
	res, err := s.e.Run(context.Background(), s.k)
	pulls := 0
	for _, d := range res.Directions {
		if d == ndgraph.HybridPull {
			pulls++
		}
	}
	return counters{converged: res.Converged, iterations: res.Iterations, updates: res.Updates, more: map[string]float64{
		"offers": float64(res.Offers), "pull_iters": float64(pulls),
	}}, err
}

func (s *hybridSolver) words() []uint64 { return s.e.Vertices }
func (s *hybridSolver) close()          { s.e.Close() }
