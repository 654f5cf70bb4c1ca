// Command ndbench regenerates the paper's evaluation tables and figures
// (Section V of "Is Your Graph Algorithm Eligible for Nondeterministic
// Execution?", ICPP 2015) plus the repository's extension studies. Every
// study is an entry of experiments.Studies(); -exp selects them by name
// and each prints the claim it tests above its tables.
//
// Usage:
//
//	ndbench -exp all                  # every study (default)
//	ndbench -exp table1,fig3          # graph inventory, computing-time grid
//	ndbench -exp variance             # Tables II and III
//
// Common flags: -scale (dataset scale divisor, default 50), -seed,
// -threads (comma list), -runs, -eps (comma list of ε). The first line of
// the output records the configuration and the host's CPU count, so a
// scaling claim is never read off thread counts the host does not have.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

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
	studies := experiments.Studies()
	fs := flag.NewFlagSet("ndbench", flag.ContinueOnError)
	var exps expList
	fs.Var(&exps, "exp", "study to run: all, "+namesOf(studies)+" (repeatable)")
	scale := fs.Int("scale", 50, "dataset scale divisor (1 = full paper size)")
	seed := fs.Uint64("seed", 42, "master random seed")
	threadsFlag := fs.String("threads", "1,2,4,8,16", "comma-separated worker counts for Fig. 3")
	runs := fs.Int("runs", 5, "independent runs per variance configuration and per Fig. 3 cell")
	epsFlag := fs.String("eps", "1e-1,1e-2,1e-3", "comma-separated PageRank ε values")
	noAligned := fs.Bool("no-aligned", false, "skip the arch-support (benign-race) mode")
	telemetry := fs.String("telemetry", "", "write per-iteration telemetry as JSON lines to this file")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live /metrics, /events, and /debug/pprof on this address (e.g. :6060)")
	tracePath := fs.String("trace", "", "save the divergence study's recorded run pairs as PREFIX-<algo>-{a,b}.ndt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := pick(studies, exps)
	if err != nil {
		return err
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
		NoAligned: *noAligned,
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

	fmt.Fprintf(out, "ndbench: scale 1/%d, seed %d, threads %v, runs %d, eps %v; host nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		cfg.Scale, cfg.Seed, cfg.Threads, cfg.Runs, cfg.Epsilons,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, s := range selected {
		tables, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Fprintf(out, "\n## %s — %s\n", s.Name, s.Claim)
		if err := experiments.WriteTables(out, tables); err != nil {
			return err
		}
	}
	return nil
}

// pick returns the studies named in exps, in registry order; no names or
// "all" selects every study, and an unknown name is an error.
func pick(studies []experiments.Study, exps expList) ([]experiments.Study, error) {
	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	all := len(want) == 0 || want["all"]
	delete(want, "all")
	var selected []experiments.Study
	for _, s := range studies {
		if all || want[s.Name] {
			selected = append(selected, s)
		}
		delete(want, s.Name)
	}
	for name := range want {
		return nil, fmt.Errorf("unknown study %q (have: all, %s)", name, namesOf(studies))
	}
	return selected, nil
}

func namesOf(studies []experiments.Study) string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
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
