package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// schema names the layout of the result files under bench/out.
const schema = "ndgraph-bench/v3"

// passNames are the result's Pass values, indexed by --trace.
var passNames = [2]string{"end_to_end", "per_layer"}

// contract is BENCHMARK.json: the one place that names the workloads, the
// gated end-to-end metrics with their regression bounds, and the per-layer
// metrics. The program reads it instead of repeating those lists.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// metric is one measured quantity: its median is the reported value, the
// samples behind it stay in the result file.
type metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Tier    string    `json:"tier,omitempty"` // executor behind a tier-slot metric such as alt.solve_s
	Summary *summary  `json:"summary,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is what one pass over one workload produced.
type result struct {
	Schema     string             `json:"schema"`
	Workload   string             `json:"workload"`
	Pass       string             `json:"pass"` // "end_to_end" (untraced) or "per_layer" (traced)
	Seed       uint64             `json:"seed"`
	Smoke      bool               `json:"smoke"`
	Env        environment        `json:"env"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]*metric `json:"metrics"`
	// LayerSelfS is the traced pass's self time per span name.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

func newResult(cfg *config, pass string) *result {
	return &result{
		Schema:   schema,
		Workload: cfg.w.Name,
		Pass:     pass,
		Seed:     cfg.seed,
		Smoke:    cfg.smoke,
		Env:      describeEnvironment(cfg),
		Metrics:  map[string]*metric{},
	}
}

// set records a single-valued metric.
func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = &metric{Unit: unit, Value: v}
}

// setSamples records a metric as the median of its samples.
func (r *result) setSamples(name, unit string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = &metric{Unit: unit, Value: s.Median, Summary: &s, Samples: samples}
}

func (r *result) value(name string) float64 {
	if m := r.Metrics[name]; m != nil {
		return m.Value
	}
	return 0
}

// attempt counts one solve into failed_frac; a non-nil err names the tier,
// the workload and the first bad vertex.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 16 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *result) finish() {
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// contractLine is the last line of standard output: exactly the metrics
// BENCHMARK.json lists for this pass.
func (r *result) contractLine(listed []contractMetric) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, cm := range listed {
		m := r.Metrics[cm.Name]
		if m == nil {
			return "", fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured on %s", cm.Name, r.Workload)
		}
		if m.Unit != cm.Unit {
			return "", fmt.Errorf("metric %s measured in %q but BENCHMARK.json says %q", cm.Name, m.Unit, cm.Unit)
		}
		line.Metrics[cm.Name] = mv{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	return string(out), err
}

// print lists every metric by name and unit, listed metrics first.
func (r *result) print(listed []contractMetric) {
	fmt.Printf("# %s  pass=%s  seed=%d  P=%d  %d/%d solves failed\n",
		r.Workload, r.Pass, r.Seed, r.Env.Workers, r.Failed, r.Attempted)
	seen := map[string]bool{}
	show := func(name string) {
		m := r.Metrics[name]
		tier := ""
		if m.Tier != "" {
			tier = " [" + m.Tier + "]"
		}
		if s := m.Summary; s != nil && s.N > 1 {
			fmt.Printf("%-36s %14.6g %-9s n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g%s\n",
				name, m.Value, m.Unit, s.N, s.Q1, s.Q3, s.Min, s.Max, tier)
		} else {
			fmt.Printf("%-36s %14.6g %-9s%s\n", name, m.Value, m.Unit, tier)
		}
	}
	for _, cm := range listed {
		if r.Metrics[cm.Name] != nil {
			show(cm.Name)
			seen[cm.Name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		show(name)
	}
	for _, f := range r.Failures {
		fmt.Println("FAILED:", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
