// Command ndbench regenerates the paper's evaluation tables and figures
// (Section V of "Is Your Graph Algorithm Eligible for Nondeterministic
// Execution?", ICPP 2015) plus the repository's extension experiments.
//
// Usage:
//
//	ndbench -exp all                  # everything (default)
//	ndbench -exp table1               # graph inventory (Table I)
//	ndbench -exp fig3                 # computing-time grid (Fig. 3 a–p)
//	ndbench -exp table2 -exp table3   # PageRank difference degrees
//	ndbench -exp conflicts            # conflict census + eligibility
//	ndbench -exp iters                # convergence-speed comparison
//	ndbench -exp async                # barrier vs pure-async comparison
//	ndbench -exp topk                 # top-K rank agreement
//	ndbench -exp netdist              # TCP worker processes + fault injection
//	ndbench -exp hybrid               # direction-optimizing engine sweep
//	ndbench -exp nosync               # work-stealing no-sync tier sweep + drift
//	ndbench -exp staleness            # delay-clock staleness vs execution drift
//
// Common flags: -scale (dataset scale divisor, default 50), -seed,
// -threads (comma list), -runs, -eps (comma list of ε).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"ndgraph/internal/experiments"
	"ndgraph/internal/obs"
)

type expList []string

func (e *expList) String() string { return strings.Join(*e, ",") }
func (e *expList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*e = append(*e, part)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ndbench", flag.ContinueOnError)
	var exps expList
	fs.Var(&exps, "exp", "experiment to run: all, table1, fig3, table2, table3, conflicts, iters, async, topk, ablate, psw, dist, netdist, fpvar, precision, divergence, hybrid, nosync, staleness (repeatable)")
	scale := fs.Int("scale", 50, "dataset scale divisor (1 = full paper size)")
	seed := fs.Uint64("seed", 42, "master random seed")
	threadsFlag := fs.String("threads", "1,2,4,8,16", "comma-separated worker counts for Fig. 3")
	runs := fs.Int("runs", 5, "independent runs per variance configuration")
	epsFlag := fs.String("eps", "1e-1,1e-2,1e-3", "comma-separated PageRank ε values")
	noAligned := fs.Bool("no-aligned", false, "skip the arch-support (benign-race) mode")
	telemetry := fs.String("telemetry", "", "write per-iteration telemetry as JSON lines to this file")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live /metrics, /events, and /debug/pprof on this address (e.g. :6060)")
	tracePath := fs.String("trace", "", "save the divergence study's recorded run pairs as PREFIX-<algo>-{a,b}.ndt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(exps) == 0 {
		exps = expList{"all"}
	}

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	eps, err := parseFloats(*epsFlag)
	if err != nil {
		return fmt.Errorf("bad -eps: %w", err)
	}
	cfg := experiments.Config{
		Scale:     *scale,
		Seed:      *seed,
		Threads:   threads,
		Runs:      *runs,
		Epsilons:  eps,
		TracePath: *tracePath,
	}
	if *telemetry != "" || *telemetryAddr != "" {
		cfg.Observer = obs.New(obs.Options{})
		if *telemetry != "" {
			f, err := os.Create(*telemetry)
			if err != nil {
				return err
			}
			cfg.Observer.AttachSink(obs.NewJSONLSink(f))
		}
		if *telemetryAddr != "" {
			srv, err := obs.Serve(*telemetryAddr, cfg.Observer)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "telemetry: serving /metrics and /debug/pprof on %s\n", srv.Addr())
		}
		cfg.Observer.PublishExpvar("ndbench")
		defer cfg.Observer.Close()
	}

	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	all := want["all"]

	if all || want["table1"] {
		if err := printTableI(out, cfg); err != nil {
			return err
		}
	}
	if all || want["fig3"] {
		if err := printFig3(out, cfg, !*noAligned); err != nil {
			return err
		}
	}
	if all || want["table2"] || want["table3"] {
		if err := printVariance(out, cfg, all || want["table2"], all || want["table3"]); err != nil {
			return err
		}
	}
	if all || want["conflicts"] {
		if err := printCensus(out, cfg); err != nil {
			return err
		}
	}
	if all || want["iters"] {
		if err := printIters(out, cfg); err != nil {
			return err
		}
	}
	if all || want["async"] {
		if err := printAsync(out, cfg); err != nil {
			return err
		}
	}
	if all || want["topk"] {
		if err := printTopK(out, cfg); err != nil {
			return err
		}
	}
	if all || want["ablate"] {
		if err := printAblations(out, cfg); err != nil {
			return err
		}
	}
	if all || want["psw"] {
		if err := printPSW(out, cfg); err != nil {
			return err
		}
	}
	if all || want["dist"] {
		if err := printDist(out, cfg); err != nil {
			return err
		}
	}
	if all || want["netdist"] {
		if err := printNetDist(out, cfg); err != nil {
			return err
		}
	}
	if all || want["fpvar"] {
		if err := printFPVar(out, cfg); err != nil {
			return err
		}
	}
	if all || want["precision"] {
		if err := printPrecision(out, cfg); err != nil {
			return err
		}
	}
	if all || want["divergence"] {
		if err := printDivergence(out, cfg); err != nil {
			return err
		}
	}
	if all || want["hybrid"] {
		if err := printHybrid(out, cfg); err != nil {
			return err
		}
	}
	if all || want["nosync"] {
		if err := printNoSync(out, cfg); err != nil {
			return err
		}
	}
	if all || want["staleness"] {
		if err := printStaleness(out, cfg); err != nil {
			return err
		}
	}
	return nil
}

func printNoSync(out io.Writer, cfg experiments.Config) error {
	scale, drift, err := experiments.NoSyncStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: barrier-free work-stealing (no-sync) tier ===")
	fmt.Fprintln(out, "BFS scaling sweep, best of 3; updates are engine-specific work units")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\tengine\tthreads\ttime\tupdates\tsteals\tidle-trans")
	for _, r := range scale {
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%d\t%d\t%d\n",
			r.Graph, r.Engine, r.Threads, r.Time.Round(10*time.Microsecond),
			r.Updates, r.Steals, r.IdleTransitions)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nexecution drift vs deterministic reference (WCC, trace-diffed):")
	for _, r := range drift {
		fmt.Fprintf(out, "\n%s, %d threads (det %d events vs nosync %d, results identical: %v):\n",
			r.Graph, r.Threads, r.DetEvents, r.NoSyncEvents, r.ResultsEqual)
		if err := r.Report.WriteReport(out); err != nil {
			return err
		}
	}
	return nil
}

func printStaleness(out io.Writer, cfg experiments.Config) error {
	stale, err := experiments.StalenessStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: staleness & convergence observability ===")
	fmt.Fprintln(out, "delay-clock staleness of work-stealing WCC (delays in elapsed updates")
	fmt.Fprintln(out, "between a value's publish and its read), vs drift from the det reference")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\tthreads\tupdates\tsteals\treads\tdelay-p50\tdelay-p99\tdelay-max\toverflow\tdiverged\tresults-equal")
	for _, r := range stale {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Graph, r.Threads, r.Updates, r.Steals, r.Reads,
			r.DelayP50, r.DelayP99, r.DelayMax, r.Overflow, r.Diverged, r.ResultsEqual)
	}
	return w.Flush()
}

func printHybrid(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.HybridStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: direction-optimizing (push/pull) hybrid engine ===")
	fmt.Fprintln(out, "trace: one letter per iteration, P = push (sparse, CAS), L = pull (dense, gather)")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgo\tthreads\titers\tswitches\thybrid\tall-push\tspeedup\ttrace")
	for _, r := range rows {
		speedup := float64(r.AllPush) / float64(r.Hybrid)
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%v\t%v\t%.2fx\t%s\n",
			r.Graph, r.Algo, r.Threads, r.Iterations, r.Switches,
			r.Hybrid.Round(10*time.Microsecond), r.AllPush.Round(10*time.Microsecond), speedup, r.Trace)
	}
	return w.Flush()
}

func printDivergence(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.DivergenceStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: execution-path divergence of repeated nondeterministic runs ===")
	for _, r := range rows {
		fmt.Fprintf(out, "\n%s on %s, %d threads (pair %d):\n", r.Algo, r.Graph, r.Threads, r.Pairs)
		if err := r.Report.WriteReport(out); err != nil {
			return err
		}
	}
	return nil
}

func printPrecision(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.PrecisionStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: error range of nondeterministic PageRank vs the true fixed point ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ε\tthreads\tmax L∞ error\tmean L∞ error\tmean L1/vertex")
	for _, r := range rows {
		fmt.Fprintf(w, "%g\t%d\t%.2e\t%.2e\t%.2e\n", r.Epsilon, r.Threads, r.MaxLInf, r.MeanLInf, r.MeanL1PerVertex)
	}
	return w.Flush()
}

func printFPVar(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.FixedPointVariance(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: fixed-point variance, PageRank vs SpMV (16NE, web-google analog) ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tε\tmean diff degree\tmean footrule")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%g\t%.1f\t%.4f\n", r.Algo, r.Epsilon, r.MeanDiff, r.Footrule)
	}
	return w.Flush()
}

func printPSW(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.PSWComparison(cfg, "")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: in-memory vs out-of-core (PSW) WCC ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\tshards\tin-mem time(s)\tPSW time(s)\tPSW bytes read\tresults identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%d\t%v\n",
			r.Graph, r.Shards, r.InMemTime.Seconds(), r.PSWTime.Seconds(), r.PSWBytesRead, r.Identical)
	}
	return w.Flush()
}

func printDist(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.DistComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: distributed simulation (reordered + duplicated delivery) ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgorithm\tworkers\tmessages\tduplicates\ttime(s)\tresults identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.4f\t%v\n",
			r.Graph, r.Algo, r.Workers, r.Messages, r.Duplicates, r.Duration.Seconds(), r.Identical)
	}
	return w.Flush()
}

func printNetDist(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.NetDistScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: real-transport distributed execution (TCP worker processes) ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgorithm\tworkers\tfaults\trestarts\tsweeps\ttime(s)\tresults identical")
	for _, r := range rows {
		faults := r.Faults
		if faults == "" {
			faults = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\t%d\t%.4f\t%v\n",
			r.Graph, r.Algo, r.Workers, faults, r.Restarts, r.Sweeps, r.Duration.Seconds(), r.Identical)
	}
	return w.Flush()
}

func printAblations(out io.Writer, cfg experiments.Config) error {
	dispatch, err := experiments.DispatchAblation(cfg)
	if err != nil {
		return err
	}
	labels, err := experiments.LabelOrderAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Ablations: dispatch policy and label order (web-berkstan analog, 4 threads) ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "study\talgorithm\tvariant\ttime(s)\titers\tupdates")
	for _, r := range append(dispatch, labels...) {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%d\t%d\n", r.Study, r.Algo, r.Variant, r.Duration.Seconds(), r.Iters, r.Updates)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	amp, err := experiments.AmplifierAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Ablation: race amplifier (observed conflicts, WCC on web-google analog) ===")
	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tRW off\tWW off\tRW on\tWW on\tresults identical")
	for _, r := range amp {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%v\n", r.Algo, r.RWOff, r.WWOff, r.RWOn, r.WWOn, r.ResultsIdentical)
	}
	return w.Flush()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func printTableI(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.TableI(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n=== Table I: real-world graphs (paper) and synthetic analogs (scale 1/%d) ===\n", cfg.Scale)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\tpaper |V|\tpaper |E|\tsynth |V|\tsynth |E|\tmax in\tmax out\tskew")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Name, r.PaperV, r.PaperE, r.SynthV, r.SynthE, r.MaxInDeg, r.MaxOutDeg, r.DegreeSkew)
	}
	return w.Flush()
}

func printFig3(out io.Writer, cfg experiments.Config, includeAligned bool) error {
	cells, err := experiments.Fig3(cfg, includeAligned)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Fig. 3: computing times (seconds; graph loading excluded) ===")
	// Group by (graph, algo) — one sub-plot per pair, as in the paper.
	type key struct{ graph, algo string }
	groups := map[key][]experiments.Fig3Cell{}
	var order []key
	for _, c := range cells {
		k := key{c.Graph, c.Algo}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		fmt.Fprintf(out, "\n--- %s on %s ---\n", k.algo, k.graph)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "exec\tthreads\ttime(s)\titers\tupdates")
		cs := groups[k]
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].Exec != cs[j].Exec {
				return cs[i].Exec < cs[j].Exec
			}
			return cs[i].Threads < cs[j].Threads
		})
		for _, c := range cs {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%d\t%d\n",
				c.Exec, c.Threads, c.Duration.Seconds(), c.Iterations, c.Updates)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func printVariance(out io.Writer, cfg experiments.Config, wantII, wantIII bool) error {
	ii, iii, err := experiments.VarianceTables(cfg)
	if err != nil {
		return err
	}
	printRows := func(title string, rows []experiments.VarianceRow) error {
		fmt.Fprintf(out, "\n=== %s (web-google analog, %d runs/config) ===\n", title, cfg.Runs)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "pair")
		for _, eps := range cfg.Epsilons {
			fmt.Fprintf(w, "\tε=%g", eps)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprint(w, r.Pair)
			for _, eps := range cfg.Epsilons {
				fmt.Fprintf(w, "\t%.1f", r.ByEpsilon[eps])
			}
			fmt.Fprintln(w)
		}
		return w.Flush()
	}
	if wantII {
		if err := printRows("Table II: avg difference degrees, same configurations", ii); err != nil {
			return err
		}
	}
	if wantIII {
		if err := printRows("Table III: avg difference degrees, different configurations", iii); err != nil {
			return err
		}
	}
	return nil
}

func printCensus(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.ConflictCensus(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: potential conflict census + eligibility verdicts ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgorithm\tRW edges\tWW edges\tverdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\n", r.Graph, r.Algo, r.RW, r.WW, r.Verdict)
	}
	return w.Flush()
}

func printIters(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.ConvergenceSpeed(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: iterations to convergence by execution model ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgorithm\tsync (BSP)\tdet (GS)\tnondet (4 threads)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", r.Graph, r.Algo, r.SyncIter, r.DetIter, r.NondetIter)
	}
	return w.Flush()
}

func printAsync(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.PureAsyncComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: barrier-based vs pure asynchronous execution ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "graph\talgorithm\tbarrier updates\tbarrier time(s)\tpure updates\tpure time(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%d\t%.4f\n",
			r.Graph, r.Algo, r.BarrierUpdates, r.BarrierTime.Seconds(), r.PureUpdates, r.PureTime.Seconds())
	}
	return w.Flush()
}

func printTopK(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.TopKAgreementStudy(cfg, []int{10, 100, 1000})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== Extension: top-K rank agreement, DE vs 16NE PageRank ===")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ε\tK\tagreement")
	for _, r := range rows {
		fmt.Fprintf(w, "%g\t%d\t%.3f\n", r.Epsilon, r.K, r.Agreement)
	}
	return w.Flush()
}
