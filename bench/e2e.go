package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ndgraph"
	"ndgraph/internal/algorithms"
)

// setUp is what setup_s times: from a graph file on disk to an executor ready
// to Run — loader.LoadFile, the algorithm's parameters (source, weights),
// engine and store construction (the nondet tier), Algorithm.Setup, and the
// certificate-backed admission verdict.
func setUp(cfg *config, path string, spec ndgraph.NetDistGraph) (*problem, solver, error) {
	g, err := ndgraph.LoadGraph(path, ndgraph.GraphOptions{})
	if err != nil {
		return nil, nil, err
	}
	pr, err := newProblem(cfg, g, spec)
	if err != nil {
		return nil, nil, err
	}
	s, err := openTier("nondet", pr, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := s.load(); err != nil {
		return nil, nil, err
	}
	verdict, err := algorithms.CertVerdict(pr.algo.Name())
	if err != nil {
		return nil, nil, err
	}
	if err := verdict.NoSync(); err != nil {
		return nil, nil, fmt.Errorf("%s refused admission: %w", pr.algo.Name(), err)
	}
	return pr, s, nil
}

// solveOnce loads the executor, times one solve and checks it against the
// oracle. Every solve is counted into failed_frac. In the traced pass the
// three steps are spans; label tells a traced twin's solve from the plain one.
func solveOnce(res *result, ora *oracle, tr *tracer, label, tierName string, s solver) (float64, counters) {
	sp := tr.begin("algo.setup[" + tierName + "]")
	err := s.load()
	sp.end()
	if err != nil {
		res.attempt(fmt.Errorf("%s on %s: load: %w", tierName, res.Workload, err))
		return 0, counters{}
	}
	sp = tr.begin(label + "[" + tierName + "]")
	t0 := time.Now()
	c, err := s.solve()
	dt := time.Since(t0).Seconds()
	sp.count("iterations", float64(c.iterations))
	sp.count("updates", float64(c.updates))
	for k, v := range c.more {
		sp.count(k, v)
	}
	sp.end()
	sp = tr.begin("verify[" + tierName + "]")
	var words []uint64
	if err == nil {
		words = s.words()
	}
	res.attempt(ora.check(res.Workload, tierName, c, err, words))
	sp.end()
	return dt, c
}

// runEndToEnd is the untraced pass: no observer, no spans. It reports what a
// user of the library sees — set-up time, time-to-fixed-point per executor
// tier, throughput with the best tier, and memory.
func runEndToEnd(cfg *config) (*result, error) {
	res := newResult(cfg, passNames[0])

	// Harness prep, not part of any metric: synthesise from the seed and
	// write the graph file the program under test will load.
	gen, spec, err := cfg.synthesize()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.tmp, "graph.bin")
	if err := ndgraph.SaveGraph(path, gen); err != nil {
		return nil, err
	}
	n, m := gen.N(), gen.M()
	gen = nil

	var setup []float64
	var pr *problem
	for i := 0; i < cfg.setupSamples(); i++ {
		pr = nil
		runtime.GC()
		t0 := time.Now()
		p, s, err := setUp(cfg, path, spec)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		s.close()
		pr = p
	}
	if pr.g.N() != n || pr.g.M() != m {
		return nil, fmt.Errorf("loaded graph has %d vertices and %d edges, generated %d and %d", pr.g.N(), pr.g.M(), n, m)
	}
	res.setSamples("setup_s", "s", setup)

	ora := newOracle(pr)
	tiers := cfg.gated()
	solvers := make([]solver, len(tiers))
	for i, gt := range tiers {
		s, err := openTier(gt.tier, pr, nil)
		if err != nil {
			return nil, err
		}
		defer s.close()
		solvers[i] = s
	}

	// One sample is a fixed batch of solves; the metric is batch time over
	// batch size. Set-up between solves and the result check are untimed.
	sample := func(i int) float64 {
		runtime.GC()
		total := 0.0
		for b := 0; b < tiers[i].batch; b++ {
			dt, _ := solveOnce(res, ora, nil, "solve", tiers[i].tier, solvers[i])
			total += dt
		}
		return total / float64(tiers[i].batch)
	}
	// A round runs every tier once, interleaved, so machine drift hits all
	// of them equally. The first round is the untimed warm-up (pools start,
	// pages fault in). Each round also reads its own memory peak and restarts
	// the high-water mark where the resident set stands. Memory is returned
	// to the OS once, before the warm-up, so that round's peak is the loaded
	// graph, the open executors and what one pass needs, without the garbage
	// of generation, set-up and construction; nothing is freed after that.
	samples := make([][]float64, len(solvers))
	var peaks []float64
	debug.FreeOSMemory()
	res.Env.PeakRSSReset = resetPeakRSS()
	round := func(timed bool) {
		for i := range solvers {
			if s := sample(i); timed {
				samples[i] = append(samples[i], s)
			}
		}
		peaks = append(peaks, peakRSSMB())
		resetPeakRSS()
	}
	round(false)
	start := time.Now()
	for n := 0; cfg.moreRounds(n, start); n++ {
		round(true)
	}

	best := math.Inf(1)
	for i, gt := range tiers {
		res.setSamples(gt.metric, "s", samples[i])
		res.Metrics[gt.metric].Tier = gt.tier
		best = math.Min(best, res.value(gt.metric))
	}
	res.set("best.medges_per_s", "Medges/s", float64(m)/best/1e6)
	// The warm-up round's peak: fixed work, what one pass over the four
	// tiers needs. The later rounds' peaks are the unlisted row
	// peak_rss_mb.rounds, where memory an executor fails to release between
	// solves shows as growth; their median and maximum are not the gated
	// value because one such executor exists and makes them a random walk
	// (README, "Defect found by the memory metric").
	res.set("peak_rss_mb", "MB", peaks[0])
	res.setSamples("peak_rss_mb.rounds", "MB", peaks)
	res.finish()
	return res, nil
}
