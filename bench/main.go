// Command bench is the repository's one benchmark: four workloads, the
// time-to-fixed-point of every executor tier on each, and a per-layer
// breakdown traced from outside the engines. See README.md.
//
//	bash bench/run.sh --workload pr-social --seed 42 --seconds 16 --trace 0
//	bash bench/run.sh                      # full set: every workload, both passes
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	compare  bool
	aa       bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs the full set, one child process per workload and pass")
	flag.Uint64Var(&o.seed, "seed", 42, "drives graph synthesis and SSSP weights")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long the measured rounds last; default: run_seconds from BENCHMARK.json (-smoke: one round)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "graphs 20 times smaller, one round: a functional check, not a measurement")
	flag.BoolVar(&o.compare, "compare", false, "compare two full-set files: -compare old.json new.json")
	flag.BoolVar(&o.aa, "aa", false, "with -compare: fail unless every pair is unchanged (two sets of one commit)")
	flag.StringVar(&o.out, "out", "", "full set: result file (default bench/out/results.json)")
	flag.Parse()
	failed, err := run(o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// run reports failed when solves were attempted and some did not pass the
// result check: the result is still printed, the exit code is non-zero.
func run(o options, args []string) (failed bool, err error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	ct, err := loadContract(root)
	if err != nil {
		return false, err
	}
	if o.compare {
		if len(args) != 2 {
			return false, fmt.Errorf("-compare takes two full-set files: old.json new.json")
		}
		return false, compareFiles(ct, args[0], args[1], o.aa)
	}
	if o.seconds <= 0 && !o.smoke {
		o.seconds = float64(ct.RunSeconds)
	}
	if o.workload == "" {
		if o.out == "" {
			o.out = filepath.Join(root, "bench", "out", "results.json")
		}
		return false, runFullSet(root, ct, o.seed, o.seconds, o.smoke, o.out)
	}

	w := findWorkload(o.workload)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	// P = min(nproc, 4) workers on exactly as many processors, whatever the
	// GOMAXPROCS environment variable says: two result files are comparable
	// only when both ran with GOMAXPROCS = P.
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	cfg := &config{root: root, w: w, seed: o.seed, seconds: o.seconds, smoke: o.smoke, workers: workers}
	if err := guard(cfg); err != nil {
		return false, err
	}
	// Every file the run writes stays inside the checkout.
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return false, err
	}
	cfg.tmp, err = os.MkdirTemp(scratch, "run-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(cfg.tmp)

	var res *result
	listed := ct.EndToEnd
	if o.trace == 0 {
		res, err = runEndToEnd(cfg)
	} else {
		listed = ct.PerLayer
		res, err = runLayers(cfg)
	}
	if err != nil {
		return false, err
	}
	if err := writeJSON(filepath.Join(root, "bench", "out", w.Name+"."+res.Pass+".json"), res); err != nil {
		return false, err
	}
	res.print(listed)
	line, err := res.contractLine(listed)
	if err != nil {
		return false, err
	}
	fmt.Println(line)
	return res.Failed > 0, nil
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory: run from inside the checkout")
		}
		dir = parent
	}
}
