package main

import (
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload through both passes at smoke scale and holds
// the program to BENCHMARK.json: the same workloads, every listed metric
// emitted under its listed unit, well-formed names, exact counts that repeat
// from run to run, and no failed solve.
func TestSmoke(t *testing.T) {
	ct, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(ct.Workloads), len(workloads))
	}
	for _, cm := range append(append([]contractMetric{}, ct.EndToEnd...), ct.PerLayer...) {
		if !metricName.MatchString(cm.Name) {
			t.Errorf("metric name %q is malformed", cm.Name)
		}
	}
	for i, cw := range ct.Workloads {
		if workloads[i].Name != cw.Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json but %q in the program", i, cw.Name, workloads[i].Name)
		}
		w := workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			// Outputs land in a scratch root, not in the repository.
			cfg := &config{root: t.TempDir(), w: w, seed: 42, seconds: 0, smoke: true, workers: 2, tmp: t.TempDir()}
			check := func(res *result, err error, listed []contractMetric) *result {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d solves failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				if _, err := res.contractLine(listed); err != nil {
					t.Fatal(err)
				}
				for name := range res.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("emitted metric name %q is malformed", name)
					}
				}
				return res
			}
			res, err := runEndToEnd(cfg)
			check(res, err, ct.EndToEnd)
			res, err = runLayers(cfg)
			first := check(res, err, ct.PerLayer)
			res, err = runLayers(cfg)
			second := check(res, err, ct.PerLayer)
			for _, name := range exactCounts {
				if a, b := first.value(name), second.value(name); a != b || a == 0 {
					t.Errorf("%s must repeat exactly and be non-zero: %v then %v", name, a, b)
				}
			}
			if cov := first.value("bench.span_coverage_frac"); cov < 0.95 {
				t.Errorf("spans cover %.3f of the traced pass, want at least 0.95", cov)
			}
		})
	}
}
