package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// fullSet is every workload's results from one commit: what -compare reads.
type fullSet struct {
	Schema    string               `json:"schema"`
	Workloads map[string]*setEntry `json:"workloads"`
}

// setEntry holds one workload's result per pass.
type setEntry struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runFullSet runs every workload, untraced then traced, each in a child
// process of its own so memory and warm state never carry from one workload
// into the next, and gathers the children's result files into one.
func runFullSet(root string, ct *contract, seed uint64, seconds float64, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &fullSet{Schema: schema, Workloads: map[string]*setEntry{}}
	for _, cw := range ct.Workloads {
		entry := &setEntry{}
		set.Workloads[cw.Name] = entry
		for trace, dst := range []**result{&entry.EndToEnd, &entry.PerLayer} {
			args := []string{
				"--workload", cw.Name,
				"--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(trace),
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", cw.Name, trace, err)
			}
			*dst = &result{}
			if err := readJSON(filepath.Join(root, "bench", "out", cw.Name+"."+passNames[trace]+".json"), *dst); err != nil {
				return err
			}
		}
	}
	fmt.Println("# full set written to", out)
	return writeJSON(out, set)
}
