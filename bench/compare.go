package main

import (
	"fmt"
	"math"
)

// exactCounts are the per-layer counts that must repeat exactly between two
// sets made with the same seeds: they describe the input and the
// deterministic executor, not the machine.
var exactCounts = []string{"graph.n", "graph.m", "core.det.iterations", "core.det.updates"}

// summaryOf is a metric's samples as one result file holds them: the rounds'
// summary where the run sampled it, the single value otherwise.
func summaryOf(r *result, name string) summary {
	m := r.Metrics[name]
	if m == nil {
		return summary{}
	}
	if m.Summary != nil {
		return *m.Summary
	}
	return summarize([]float64{m.Value})
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// their quartiles, the ratio with its base, and a verdict from the bound in
// BENCHMARK.json. With requireUnchanged (the A/A check) any other verdict, or
// an exact count that differs, is an error.
func compareFiles(ct *contract, oldPath, newPath string, requireUnchanged bool) error {
	var oldSet, newSet fullSet
	if err := readJSON(oldPath, &oldSet); err != nil {
		return err
	}
	if err := readJSON(newPath, &newSet); err != nil {
		return err
	}
	fmt.Printf("base (old): %s\nnew:        %s\n", oldPath, newPath)
	fmt.Printf("%-13s %-18s %-28s %-28s %-16s %6s  %s\n",
		"workload", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "new/old", "bound", "verdict")
	tally := map[string]int{}
	for _, cw := range ct.Workloads {
		a, b := oldSet.Workloads[cw.Name], newSet.Workloads[cw.Name]
		if a == nil || b == nil || a.EndToEnd == nil || b.EndToEnd == nil || a.PerLayer == nil || b.PerLayer == nil {
			return fmt.Errorf("workload %s is missing from one of the files", cw.Name)
		}
		for _, cm := range ct.EndToEnd {
			sa, sb := summaryOf(a.EndToEnd, cm.Name), summaryOf(b.EndToEnd, cm.Name)
			if sa.N == 0 || sb.N == 0 {
				return fmt.Errorf("%s on %s is missing from one of the files", cm.Name, cw.Name)
			}
			v := verdict(sa, sb, cm)
			tally[v]++
			fmt.Printf("%-13s %-18s %-28s %-28s %-16s %6.2f  %s\n", cw.Name, cm.Name,
				cell(sa), cell(sb), fmt.Sprintf("%.3f of %.4g", sb.Median/sa.Median, sa.Median), *cm.Bound, v)
		}
	}
	fmt.Printf("verdicts: %d unchanged, %d improved, %d regressed, %d unresolved\n",
		tally["unchanged"], tally["improved"], tally["regressed"], tally["unresolved"])

	countsDiffer := 0
	for _, cw := range ct.Workloads {
		a, b := oldSet.Workloads[cw.Name].PerLayer, newSet.Workloads[cw.Name].PerLayer
		if a.Seed != b.Seed {
			fmt.Printf("exact counts not compared on %s: seeds %d and %d differ\n", cw.Name, a.Seed, b.Seed)
			continue
		}
		for _, name := range exactCounts {
			if x, y := a.value(name), b.value(name); x != y {
				countsDiffer++
				fmt.Printf("exact count differs: %s on %s seed %d: %v vs %v\n", name, cw.Name, a.Seed, x, y)
			}
		}
	}
	if countsDiffer == 0 {
		fmt.Println("exact counts (graph.n, graph.m, core.det.iterations, core.det.updates): identical")
	}
	if requireUnchanged && (tally["unchanged"] != len(ct.Workloads)*len(ct.EndToEnd) || countsDiffer > 0) {
		return fmt.Errorf("A/A check failed: two sets of one commit must compare as unchanged everywhere")
	}
	return nil
}

func cell(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// verdict applies the metric's bound: unresolved when either side's own
// spread (interquartile range over median) is wider than the bound, else
// regressed or improved when the medians differ by more than the bound.
func verdict(old, cur summary, cm contractMetric) string {
	bound := *cm.Bound
	if math.Max(old.spread(), cur.spread()) > bound {
		return "unresolved"
	}
	worse := cur.Median/old.Median - 1
	if cm.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}
