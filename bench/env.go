package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every result file so two files can be told
// apart before they are compared.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	RAMBytes   int64  `json:"ram_bytes"`
	Race       bool   `json:"race"`
	// PeakRSSReset says the memory high-water mark could be restarted before
	// the warm-up round (untraced pass); false means peak_rss_mb is the peak
	// since process start, graph generator included.
	PeakRSSReset bool `json:"peak_rss_reset"`
	// MemBWArrayBytes is the size of each array of the bandwidth copy (the
	// traced pass only); MemBWCapped says a cap cut it below 4×LLC.
	MemBWArrayBytes int64 `json:"membw_array_bytes,omitempty"`
	MemBWCapped     bool  `json:"membw_capped,omitempty"`
	// Scale, Batch, Rounds and SetupSamples are the constants the run used.
	GraphDiv     int     `json:"graph_div"`
	RMAT         [2]int  `json:"rmat_n_m"`
	Batch        [4]int  `json:"batch"`
	MinRounds    int     `json:"min_rounds"`
	SetupSamples int     `json:"setup_samples"`
	RunSeconds   float64 `json:"run_seconds"`
}

func describeEnvironment(cfg *config) environment {
	l2, llc := cacheSizes()
	env := environment{
		Commit:       headCommit(cfg.root),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      cfg.workers,
		CPUModel:     cpuModel(),
		L2Bytes:      l2,
		LLCBytes:     llc,
		RAMBytes:     ramBytes(),
		Race:         raceEnabled,
		GraphDiv:     cfg.w.Div * cfg.div(),
		MinRounds:    cfg.minRounds(),
		SetupSamples: cfg.setupSamples(),
		RunSeconds:   cfg.seconds,
	}
	for i, gt := range cfg.gated() {
		env.Batch[i] = gt.batch
	}
	if cfg.w.RMAT[0] > 0 {
		env.GraphDiv = cfg.div()
		env.RMAT = [2]int{cfg.w.RMAT[0] / cfg.div(), cfg.w.RMAT[1] / cfg.div()}
	}
	return env
}

// guard refuses a gated run whose numbers would not be comparable. (main sets
// GOMAXPROCS = P <= nproc itself, so that needs no check.)
func guard(cfg *config) error {
	if raceEnabled && !cfg.smoke {
		return fmt.Errorf("refusing a gated run under the race detector (use -smoke)")
	}
	return nil
}

// headCommit reads the checked-out commit without starting git; a checkout
// that is not a repository reports "unknown".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// cacheSizes reports cpu0's L2 and last-level cache sizes as the OS states
// them (0 when unknown). In a VM the LLC is the host's, shared with others.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	topLevel := 0
	for _, dir := range dirs {
		typ, _ := os.ReadFile(filepath.Join(dir, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		lvl, _ := os.ReadFile(filepath.Join(dir, "level"))
		level, _ := strconv.Atoi(strings.TrimSpace(string(lvl)))
		sz, _ := os.ReadFile(filepath.Join(dir, "size"))
		size := parseSize(strings.TrimSpace(string(sz)))
		if level == 2 {
			l2 = size
		}
		if level > topLevel {
			topLevel, llc = level, size
		}
	}
	return l2, llc
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

func ramBytes() int64 {
	return procKB("/proc/meminfo", "MemTotal:") << 10
}

// peakRSSMB is the process's high-water resident set since the last
// resetPeakRSS (since process start where the reset is not available).
func peakRSSMB() float64 {
	return float64(procKB("/proc/self/status", "VmHWM:")) / 1024
}

// resetPeakRSS restarts the kernel's high-water mark at the current resident
// set and reports whether the kernel let it: without the reset every reading
// is the peak since process start, and the result's env block says so.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// procKB reads a "Key:   N kB" line from a /proc file (0 when absent).
func procKB(path, key string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				n, _ := strconv.ParseInt(fields[1], 10, 64)
				return n
			}
		}
	}
	return 0
}
