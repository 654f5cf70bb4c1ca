package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ndgraph"
	"ndgraph/internal/algorithms"
)

// observedAs names, for the executors whose telemetry cost is a per-layer
// row, the obs.EngineKind label their events arrive under. The traced pass
// runs each of them twice per round: plain, and as a twin with an
// obs.Observer attached.
var observedAs = map[string]string{
	"nondet": "core", "nosync": "nosync", "hybrid": "hybrid", "netdist": "netdist",
}

// lane is one executor in the traced pass.
type lane struct {
	name         string
	plain, twin  solver
	obs          *ndgraph.Observer
	newS         float64 // engine and store construction of the plain executor
	plainS       []float64
	twinS        []float64
	plainC       counters                     // the last plain solve
	twinC        counters                     // the last observed solve
	stats        ndgraph.TelemetryEngineStats // observer counters over the last observed solve
	retransmits  float64                      // netdist: scraped from the observer's /metrics text
	linfErr      float64
	overheadFrac float64
}

func (l *lane) plainMedian() float64 { return median(l.plainS) }

// runLayers is the traced pass: the benchmark's own spans around every call
// into a layer, observers attached to the executors that have telemetry, and
// the micro-kernels. End-to-end metrics never come from here.
func runLayers(cfg *config) (*result, error) {
	res := newResult(cfg, passNames[1])
	tr := newTracer(cfg.w.Name)
	w := cfg.w
	gc := func() { tr.in("harness.gc", runtime.GC) }

	sp := tr.begin("gen")
	gen, spec, err := cfg.synthesize()
	if err != nil {
		return nil, err
	}
	res.set("gen.synth_s", "s", sp.end())

	path := filepath.Join(cfg.tmp, "graph.bin")
	sp = tr.begin("loader.write")
	if err := ndgraph.SaveGraph(path, gen); err != nil {
		return nil, err
	}
	writeS := sp.end()
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fileMB := float64(info.Size()) / 1e6
	res.set("loader.write_mb_per_s", "MB/s", fileMB/writeS)
	gen = nil

	gc()
	sp = tr.begin("loader.read")
	g, err := ndgraph.LoadGraph(path, ndgraph.GraphOptions{})
	if err != nil {
		return nil, err
	}
	readS := sp.end()
	n, m := g.N(), g.M()
	res.set("loader.read_s", "s", readS)
	res.set("loader.read_mb_per_s", "MB/s", fileMB/readS)

	var edges []ndgraph.Edge
	tr.in("harness.edges", func() { edges = g.Edges() })
	gc()
	sp = tr.begin("graph.build")
	if _, err := ndgraph.BuildGraph(edges, ndgraph.GraphOptions{NumVertices: n}); err != nil {
		return nil, err
	}
	buildS := sp.end()
	res.set("graph.build_s", "s", buildS)
	res.set("graph.build_medges_per_s", "Medges/s", float64(m)/buildS/1e6)
	// Computed from array sizes: two int64 offset arrays, three uint32
	// per-edge arrays (dual CSR plus the canonical in-edge index), and the
	// 8-byte edge word every store keeps.
	res.set("graph.bytes_per_edge", "B/edge", (16*float64(n+1)+12*float64(m))/float64(m)+8)
	res.set("graph.n", "count", float64(n))
	res.set("graph.m", "count", float64(m))

	sp = tr.begin("micro.loader.edgelist")
	if err := microEdgeList(res, edges, n); err != nil {
		return nil, err
	}
	sp.end()
	edges = nil

	sp = tr.begin("algo.new")
	pr, err := newProblem(cfg, g, spec)
	if err != nil {
		return nil, err
	}
	sp.end()
	if err := admission(tr, res, pr); err != nil {
		return nil, err
	}
	var ora *oracle
	tr.in("harness.reference", func() { ora = newOracle(pr) })

	// Open every lane: the gated tiers.
	var lanes []*lane
	byName := map[string]*lane{}
	for _, gt := range cfg.gated() {
		name := gt.tier
		l := &lane{name: name}
		gc()
		sp = tr.begin("engine.new[" + name + "]")
		l.plain, err = openTier(name, pr, nil)
		l.newS = sp.end()
		if err != nil {
			return nil, err
		}
		defer l.plain.close()
		if _, ok := observedAs[name]; ok {
			l.obs = ndgraph.NewObserver(ndgraph.ObserverOptions{})
			sp = tr.begin("engine.new.traced[" + name + "]")
			l.twin, err = openTier(name, pr, l.obs)
			sp.end()
			if err != nil {
				return nil, err
			}
			defer l.twin.close()
		}
		lanes = append(lanes, l)
		byName[name] = l
	}

	measureStart := time.Now()
	// Warm-up, then the fixed work, then as many plain/observed rounds as
	// the remaining time allows (at least two).
	for _, l := range lanes {
		solveOnce(res, ora, tr, "warmup", l.name, l.plain)
		if l.twin != nil {
			solveOnce(res, ora, tr, "warmup.traced", l.name, l.twin)
		}
	}

	for _, name := range append(append([]string{}, universalContenders...), w.Contenders...) {
		dt := 0.0
		if name != "aligned" || !raceEnabled { // ModeAligned races by design
			gc()
			sp = tr.begin("engine.new[" + name + "]")
			s, err := openTier(name, pr, nil)
			sp.end()
			if err != nil {
				return nil, err
			}
			dt, _ = solveOnce(res, ora, tr, "solve", name, s)
			s.close()
		}
		res.set(contenderMetric(name), "s", dt)
	}
	if len(w.Reduced) > 0 {
		if err := reducedContenders(cfg, tr, res); err != nil {
			return nil, err
		}
	}

	recordedS, err := recordedSolve(cfg, tr, res, ora, pr)
	if err != nil {
		return nil, err
	}
	if err := netDistFloor(cfg, tr, res); err != nil {
		return nil, err
	}

	tr.in("micro.edgedata", func() { microEdgeData(res, g) })
	tr.in("micro.membw", func() { microMemBW(cfg, res) })
	gc()
	tr.in("micro.frontier", func() { microFrontier(res, n) })
	tr.in("micro.sched", func() { microSched(cfg, res) })
	tr.in("micro.obs", func() { microObs(cfg, res, m) })

	minRounds := 2
	if cfg.smoke {
		minRounds = 1
	}
	for round := 0; round < minRounds || time.Since(measureStart).Seconds() < cfg.seconds; round++ {
		for _, l := range lanes {
			gc()
			dt, c := solveOnce(res, ora, tr, "solve", l.name, l.plain)
			l.plainS, l.plainC = append(l.plainS, dt), c
			l.linfErr = math.Max(l.linfErr, ora.linfErr(l.plain.words()))
			if l.twin != nil {
				gc()
				l.solveTwin(res, ora, tr)
			}
		}
	}

	reportLanes(cfg, res, lanes, byName, recordedS)
	res.finish()
	coverage, selfS := tr.finish()
	res.set("bench.span_coverage_frac", "ratio", coverage)
	res.LayerSelfS = selfS
	err = writeJSON(filepath.Join(cfg.root, "bench", "out", w.Name+".trace.json"), tr.spans)
	return res, err
}

// reportLanes derives the per-layer rows from what the lanes measured.
func reportLanes(cfg *config, res *result, lanes []*lane, byName map[string]*lane, recordedS float64) {
	det, nondet, nosync := byName["det"], byName["nondet"], byName["nosync"]
	var plainSum, twinSum, linf float64
	for _, l := range lanes {
		linf = math.Max(linf, l.linfErr)
		if l.twin != nil {
			plainSum += l.plainMedian()
			twinSum += median(l.twinS)
			l.overheadFrac = median(l.twinS)/l.plainMedian() - 1
		}
	}
	res.set("algorithms.pr_linf_err", "ratio", linf)
	res.set("bench.traced_overhead_frac", "ratio", twinSum/plainSum-1)
	for _, l := range lanes {
		res.setSamples("lane."+l.name+".solve_s", "s", l.plainS)
		if l.twin != nil {
			res.setSamples("lane."+l.name+".traced_solve_s", "s", l.twinS)
		}
	}

	res.set("core.engine_new_s", "s", nondet.newS)
	res.set("core.det.iterations", "count", float64(det.plainC.iterations))
	res.set("core.det.updates", "count", float64(det.plainC.updates))
	res.set("core.nondet.iterations", "count", float64(nondet.twinC.iterations))
	res.set("core.nondet.updates", "count", float64(nondet.twinC.updates))
	res.set("core.nondet.work_ratio", "ratio", float64(nondet.twinC.updates)/float64(det.plainC.updates))
	// Informational: a ratio of two noisy medians (the paper's Fig. 3 number).
	res.set("core.nondet.speedup_vs_det", "ratio", det.plainMedian()/nondet.plainMedian())
	st := nondet.stats
	res.set("core.nondet.edge_reads", "count", float64(st.EdgeReads))
	res.set("core.nondet.edge_writes", "count", float64(st.EdgeWrites))
	res.set("core.nondet.ns_per_edge_access", "ns", nondet.plainMedian()*1e9/float64(st.EdgeReads+st.EdgeWrites))
	res.set("core.nondet.barrier_wait_frac", "ratio", float64(st.BarrierWait)/(float64(cfg.workers)*float64(st.Duration)))
	res.set("core.nondet.obs_overhead_frac", "ratio", nondet.overheadFrac)
	// Modelled, not measured inside the engine: what the iteration count
	// costs in empty barriers plus sparse frontier advances alone, as a
	// share of the solve.
	floorS := float64(nondet.twinC.iterations) * (res.value("sched.pool.barrier_us") + res.value("frontier.advance_sparse_us")) / 1e6
	res.set("core.nondet.sync_floor_frac", "ratio", floorS/nondet.plainMedian())

	res.set("nosync.updates", "count", float64(nosync.twinC.updates))
	res.set("nosync.work_ratio", "ratio", float64(nosync.twinC.updates)/float64(det.plainC.updates))
	res.set("nosync.steals_per_kupdate", "ratio", 1000*nosync.twinC.more["steals"]/float64(nosync.twinC.updates))
	res.set("nosync.idle_transitions", "count", nosync.twinC.more["idle_transitions"])
	res.set("nosync.delay_p99", "epochs", delayP99(nosync.obs, "nosync"))
	res.set("nosync.obs_overhead_frac", "ratio", nosync.overheadFrac)

	// Executors that cannot run this workload report zero counts.
	hybrid := byName["hybrid"]
	if hybrid == nil {
		hybrid = &lane{}
	}
	res.set("hybrid.iterations", "count", float64(hybrid.twinC.iterations))
	res.set("hybrid.pull_iters", "count", hybrid.twinC.more["pull_iters"])
	res.set("hybrid.offers", "count", hybrid.twinC.more["offers"])
	res.set("hybrid.useful_frac", "ratio", ratio(float64(hybrid.twinC.updates), hybrid.twinC.more["offers"]))
	res.set("hybrid.obs_overhead_frac", "ratio", hybrid.overheadFrac)

	nd := byName["netdist"]
	if nd == nil {
		nd = &lane{}
	}
	res.set("netdist.sweeps", "count", nd.twinC.more["sweeps"])
	res.set("netdist.restarts", "count", nd.twinC.more["restarts"])
	res.set("netdist.messages", "count", float64(nd.stats.Messages))
	res.set("netdist.useful_frac", "ratio", ratio(float64(nd.stats.Updates), float64(nd.stats.Messages)))
	res.set("netdist.retransmits", "count", nd.retransmits)
	res.set("netdist.kmsgs_per_s", "1/s", ratio(float64(nd.stats.Messages)/1e3, median(nd.twinS)))
	res.set("netdist.slowdown_vs_nondet", "ratio", ratio(nd.plainMedian(), nondet.plainMedian()))

	res.set("trace.record_overhead_frac", "ratio", recordedS/nondet.plainMedian()-1)
}

// contenderMetric names a contender's row: the core engine's variants carry
// the core prefix, every other executor its own name.
func contenderMetric(tierName string) string {
	switch tierName {
	case "locked", "aligned", "dynamic":
		return "core." + tierName + ".solve_s"
	}
	return tierName + ".solve_s"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// solveTwin runs the observed twin once and keeps the observer's counters for
// exactly that solve, snapshotted at the span's boundaries.
func (l *lane) solveTwin(res *result, ora *oracle, tr *tracer) {
	label := observedAs[l.name]
	before := engineStats(l.obs, label)
	var dt float64
	var c counters
	if l.name == "netdist" {
		stop, scraped := make(chan struct{}), make(chan float64)
		go scrapeRetransmits(l.obs, stop, scraped)
		dt, c = solveOnce(res, ora, tr, "solve.traced", l.name, l.twin)
		close(stop)
		l.retransmits = <-scraped
	} else {
		dt, c = solveOnce(res, ora, tr, "solve.traced", l.name, l.twin)
	}
	after := engineStats(l.obs, label)
	l.twinS, l.twinC = append(l.twinS, dt), c
	l.stats = ndgraph.TelemetryEngineStats{
		Updates:     after.Updates - before.Updates,
		EdgeReads:   after.EdgeReads - before.EdgeReads,
		EdgeWrites:  after.EdgeWrites - before.EdgeWrites,
		BarrierWait: after.BarrierWait - before.BarrierWait,
		Duration:    after.Duration - before.Duration,
		Messages:    after.Messages - before.Messages,
	}
	tr.countLast("solve.traced["+l.name+"]", map[string]float64{
		"obs.updates": float64(l.stats.Updates), "obs.edge_reads": float64(l.stats.EdgeReads),
		"obs.edge_writes": float64(l.stats.EdgeWrites), "obs.barrier_wait_ns": float64(l.stats.BarrierWait),
		"obs.messages": float64(l.stats.Messages),
	})
}

func engineStats(o *ndgraph.Observer, label string) ndgraph.TelemetryEngineStats {
	for _, s := range o.Stats() {
		if s.Engine == label {
			return s
		}
	}
	return ndgraph.TelemetryEngineStats{}
}

func delayP99(o *ndgraph.Observer, label string) float64 {
	for _, d := range o.DelaySnapshots() {
		if d.Engine == label {
			return float64(d.P99)
		}
	}
	return 0
}

// scrapeRetransmits polls the observer's Prometheus text — the only place a
// netdist run's per-worker retransmit counters are visible from outside, and
// only while the run lasts — and reports the largest total it saw.
func scrapeRetransmits(o *ndgraph.Observer, stop <-chan struct{}, out chan<- float64) {
	const series = "ndgraph_worker_retransmits_total{"
	worst := 0.0
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- worst
			return
		case <-tick.C:
		}
		var buf bytes.Buffer
		o.WriteMetrics(&buf)
		total := 0.0
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, series) {
				v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				total += v
			}
		}
		worst = math.Max(worst, total)
	}
}

// admission times the three ways a run gets its eligibility verdict: the
// embedded certificate, the static profile, and the instrumented probe pass a
// user without a certificate pays.
func admission(tr *tracer, res *result, pr *problem) error {
	outer := tr.begin("admit")
	defer outer.end()
	const reps = 200
	name := pr.algo.Name()
	sp := tr.begin("admit.cert")
	for i := 0; i < reps; i++ {
		v, err := algorithms.CertVerdict(name)
		if err != nil {
			return err
		}
		if err := v.NoSync(); err != nil {
			return err
		}
	}
	res.set("admit.cert_us", "us", sp.end()*1e6/reps)
	sp = tr.begin("admit.static")
	for i := 0; i < reps; i++ {
		if _, err := ndgraph.NoSyncVerdict(pr.algo, pr.g); err != nil {
			return err
		}
	}
	res.set("admit.static_us", "us", sp.end()*1e6/reps)
	sp = tr.begin("admit.probe")
	_, v, err := ndgraph.Probe(pr.algo, pr.g)
	if err != nil {
		return err
	}
	res.set("admit.probe_s", "s", sp.end())
	if err := v.NoSync(); err != nil {
		return fmt.Errorf("probe refused %s: %w", name, err)
	}
	return nil
}

// recordedSolve runs nondet once with a trace.Recorder attached and writes
// the NDTR file, for trace.record_overhead_frac and trace.write_mb_per_s.
func recordedSolve(cfg *config, tr *tracer, res *result, ora *oracle, pr *problem) (float64, error) {
	capacity := 1 << 21
	if cfg.smoke {
		capacity = 1 << 16
	}
	rec := ndgraph.NewTraceRecorder(capacity)
	opts := coreOptions["nondet"]
	opts.Trace = rec
	sp := tr.begin("engine.new[recorded]")
	s, err := openCore(pr, opts, nil)
	sp.end()
	if err != nil {
		return 0, err
	}
	defer s.close()
	dt, _ := solveOnce(res, ora, tr, "solve", "recorded", s)

	path := filepath.Join(cfg.tmp, "run.ndtr")
	sp = tr.begin("trace.write")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = ndgraph.WriteTrace(f, rec.Snapshot(ndgraph.TraceMeta{Vertices: pr.g.N(), Edges: pr.g.M()}))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	writeS := sp.end()
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	res.set("trace.write_mb_per_s", "MB/s", float64(info.Size())/1e6/writeS)
	return dt, nil
}

// netDistFloor is what any netdist job pays before doing work: BFS on a
// 16-vertex ring, i.e. launch, handshake, termination sweeps and teardown.
func netDistFloor(cfg *config, tr *tracer, res *result) error {
	reps := microReps
	if cfg.smoke {
		reps = 1
	}
	floorCfg := *cfg
	floorCfg.w = &workload{Name: cfg.w.Name, Algo: "bfs"}
	pr := &problem{cfg: &floorCfg, spec: ndgraph.NetDistGraph{Kind: "ring", N: 16}}
	s, err := openNetDist(pr, nil)
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("netdist.floor")
		_, err := s.solve()
		times = append(times, sp.end())
		if err != nil {
			return err
		}
	}
	res.set("netdist.floor_s", "s", median(times))
	return nil
}

// reducedContenders solves the workload's graph family reducedDiv times
// smaller with the contenders that are too slow for the full graph, and with
// nondet for the ratio.
func reducedContenders(cfg *config, tr *tracer, res *result) error {
	sp := tr.begin("reduced")
	defer sp.end()
	small := *cfg.w
	small.Div *= reducedDiv
	smallCfg := *cfg
	smallCfg.w = &small
	g, spec, err := smallCfg.synthesize()
	if err != nil {
		return err
	}
	pr, err := newProblem(&smallCfg, g, spec)
	if err != nil {
		return err
	}
	ora := newOracle(pr)
	times := map[string]float64{}
	for _, name := range append([]string{"nondet"}, small.Reduced...) {
		s, err := openTier(name, pr, nil)
		if err != nil {
			return err
		}
		dt, c := solveOnce(res, ora, tr, "solve.reduced", name, s)
		s.close()
		times[name] = dt
		if name == "shard" {
			res.set("shard.build_s", "s", c.more["build_s"])
		}
	}
	for _, name := range small.Reduced {
		res.set(name+".solve_s", "s", times[name])
		res.set(name+".slowdown_vs_nondet", "ratio", times[name]/times["nondet"])
	}
	return nil
}
