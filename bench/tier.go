package main

import (
	"fmt"
	"sort"

	"ndgraph"
)

// tier adapts one executor to the harness. Every adapter lives in its own
// tier_<engine>.go and registers itself here, so deleting an engine deletes
// one file.
type tier struct {
	// supports reports whether the executor can solve the algorithm at all.
	supports func(algo string) bool
	// open builds the executor on the problem's graph (engine and store
	// construction, admission). A non-nil observer makes it the traced twin.
	open func(pr *problem, o *ndgraph.Observer) (solver, error)
}

// solver is an opened executor. solve_s is the wall time of solve alone:
// loaded state in, Run returned.
type solver interface {
	// load puts the executor into the algorithm's initial state.
	load() error
	// solve runs to the fixed point.
	solve() (counters, error)
	// words returns the converged per-vertex words for the oracle.
	words() []uint64
	close()
}

// counters is what an executor's Result says about one solve; executors fill
// what they have.
type counters struct {
	converged  bool
	iterations int
	updates    int64
	// more carries tier-specific counts (steals, offers, sweeps, ...).
	more map[string]float64
}

var tiers = map[string]*tier{}

func register(name string, t *tier) {
	if _, dup := tiers[name]; dup {
		panic("bench: tier registered twice: " + name)
	}
	tiers[name] = t
}

func openTier(name string, pr *problem, o *ndgraph.Observer) (solver, error) {
	t := tiers[name]
	if t == nil {
		return nil, fmt.Errorf("unknown tier %q (have %v)", name, tierNames())
	}
	if !t.supports(pr.cfg.w.Algo) {
		return nil, fmt.Errorf("tier %s cannot run %s", name, pr.cfg.w.Algo)
	}
	s, err := t.open(pr, o)
	if err != nil {
		return nil, fmt.Errorf("tier %s on %s: %w", name, pr.cfg.w.Name, err)
	}
	return s, nil
}

func tierNames() []string {
	var names []string
	for name := range tiers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func anyAlgo(string) bool { return true }

func traversalOnly(algo string) bool { return algo != "pagerank" }
