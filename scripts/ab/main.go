// Command ab runs a paired benchmark of a base revision against the working
// tree and prints, for every gated end-to-end metric, how the two sides
// compare. It is what scripts/ab.sh runs:
//
//	scripts/ab.sh <rev> --workload W --pairs N [bench/run.sh flags...]
//
// Both sides are copied into one new scratch directory D under $TMPDIR:
// <rev> through git archive, the working tree as git
// sees it (tracked and untracked, not ignored, files). Each pair runs
// bench/run.sh --workload W, unmodified and with the remaining flags, once
// in each copy; the side that runs first alternates from pair to pair. Every
// run's bench/out/W.end_to_end.json is kept under D/results, and D/runs.tsv
// records each run's pair, side, tree hash and the diff hash, since the
// result files' own commit field cannot tell the two sides apart.
//
// Per metric it prints each side's median, the median over pairs of the
// change/base ratio, the pairs the change won (ties count for neither), the
// exact one-sided sign-test p of that many wins, the interquartile range
// of the base side's runs, and a verdict: "improved" when the change won
// at least 9 in 10 of all pairs and its median moved past the base side's
// interquartile range, "regressed" under the mirror-image rule, and
// "unresolved" otherwise.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return errors.New("usage: ab.sh <rev> --workload W --pairs N [bench/run.sh flags...]")
	}
	rev := args[0]
	fset := flag.NewFlagSet("ab", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload to run (required)")
	pairs := fset.Int("pairs", 10, "number of base/change pairs")
	// Flags ab does not know go to bench/run.sh as they are.
	var pass []string
	for rest := args[1:]; len(rest) > 0; {
		name, _, hasValue := strings.Cut(strings.TrimLeft(rest[0], "-"), "=")
		n := 1
		if !hasValue {
			n = 2
		}
		if fset.Lookup(name) == nil || len(rest) < n {
			pass, rest = append(pass, rest[0]), rest[1:]
			continue
		}
		if err := fset.Parse(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	if *workload == "" || *pairs < 1 {
		return errors.New("--workload and --pairs >= 1 are required")
	}
	root, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ab-*")
	if err != nil {
		return err
	}
	sides := []string{"base", "change"}
	for _, d := range []string{"base", "change", "results", "logs"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	base, change := filepath.Join(dir, "base"), filepath.Join(dir, "change")
	if err := sh(root, fmt.Sprintf("git archive %q | tar -x -C %q", rev, base)); err != nil {
		return fmt.Errorf("archive %s: %w", rev, err)
	}
	if err := copyWorkingTree(root, change); err != nil {
		return err
	}
	trees := map[string]map[string]string{}
	for _, s := range sides {
		if trees[s], err = hashTree(filepath.Join(dir, s)); err != nil {
			return err
		}
	}
	treeHash := map[string]string{"base": digest(trees["base"], nil), "change": digest(trees["change"], nil)}
	diffHash := digest(trees["base"], trees["change"])
	fmt.Printf("ab: %s: base %s (tree %.12s) vs working tree (tree %.12s), diff %.12s, %d pairs in %s\n",
		*workload, rev, treeHash["base"], treeHash["change"], diffHash, *pairs, dir)

	gated, err := gatedMetrics(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	tsv, err := os.Create(filepath.Join(dir, "runs.tsv"))
	if err != nil {
		return err
	}
	defer tsv.Close()
	fmt.Fprintln(tsv, "pair\torder\tside\ttree\tdiff\tresult")
	values := map[string][][2]float64{} // metric → per pair {base, change}
	for p := 0; p < *pairs; p++ {
		order := sides
		if p%2 == 1 {
			order = []string{"change", "base"}
		}
		var got [2]map[string]float64
		for i, s := range order {
			res := filepath.Join(dir, "results", fmt.Sprintf("pair%02d-%s.json", p, s))
			log := filepath.Join(dir, "logs", fmt.Sprintf("pair%02d-%s.log", p, s))
			m, err := benchOnce(filepath.Join(dir, s), *workload, pass, res, log)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w (log: %s)", p, s, err, log)
			}
			got[slices.Index(sides, s)] = m
			fmt.Fprintf(tsv, "%d\t%d\t%s\t%s\t%s\t%s\n", p, i, s, treeHash[s], diffHash, res)
		}
		for _, g := range gated {
			values[g.Name] = append(values[g.Name], [2]float64{got[0][g.Name], got[1][g.Name]})
		}
		fmt.Fprintf(os.Stderr, "ab: pair %d/%d done\n", p+1, *pairs)
	}
	fmt.Printf("%-20s %12s %12s %8s %6s %8s %10s  %s\n", "metric", "base_med", "change_med", "ratio", "wins", "p", "base_iqr", "verdict")
	for _, g := range gated {
		printRow(g, values[g.Name])
	}
	return tsv.Close()
}

type gatedMetric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func gatedMetrics(path string) ([]gatedMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []gatedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg.EndToEnd, nil
}

// benchOnce runs bench/run.sh in checkout, keeps its end-to-end result file
// as res, and returns its metric values plus failed_frac.
func benchOnce(checkout, workload string, pass []string, res, log string) (map[string]float64, error) {
	out := filepath.Join(checkout, "bench", "out", workload+".end_to_end.json")
	_ = os.Remove(out)
	f, err := os.Create(log)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cmd := exec.Command("bash", append([]string{"bench/run.sh", "--workload", workload}, pass...)...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = checkout, f, f
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(res, b, 0o644); err != nil {
		return nil, err
	}
	var r struct {
		FailedFrac float64 `json:"failed_frac"`
		Metrics    map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	if r.FailedFrac != 0 {
		return nil, fmt.Errorf("failed_frac %v", r.FailedFrac)
	}
	m := map[string]float64{}
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// comparison is one metric's summary over its (base, change) pairs.
type comparison struct {
	baseMed, changeMed, ratio, baseIQR float64
	wins, losses, n                    int // n excludes ties
}

func compare(better string, pairs [][2]float64) comparison {
	var base, change, ratios []float64
	var c comparison
	for _, p := range pairs {
		base, change = append(base, p[0]), append(change, p[1])
		if p[0] != 0 {
			ratios = append(ratios, p[1]/p[0])
		}
		if p[0] == p[1] {
			continue
		}
		c.n++
		if (p[1] < p[0]) == (better == "lower") {
			c.wins++
		} else {
			c.losses++
		}
	}
	c.baseMed, c.changeMed, c.ratio = quantile(base, 0.5), quantile(change, 0.5), quantile(ratios, 0.5)
	c.baseIQR = quantile(base, 0.75) - quantile(base, 0.25)
	return c
}

// verdict applies the gain rule to a comparison over pairs pairs: the
// change improved the metric when it won at least 9 in 10 of all pairs
// (a tie is no win) and its median moved the better way by more than the
// base side's interquartile range; it regressed when it lost as often and
// its median moved as far the worse way.
func verdict(better string, c comparison, pairs int) string {
	gain := c.changeMed - c.baseMed
	if better == "lower" {
		gain = -gain
	}
	switch {
	case 10*c.wins >= 9*pairs && gain > c.baseIQR:
		return "improved"
	case 10*c.losses >= 9*pairs && -gain > c.baseIQR:
		return "regressed"
	}
	return "unresolved"
}

// printRow prints one metric's comparison over its pairs.
func printRow(g gatedMetric, pairs [][2]float64) {
	c := compare(g.Better, pairs)
	fmt.Printf("%-20s %12.4g %12.4g %8.3f %3d/%-2d %8.4f %10.4g  %s\n",
		g.Name, c.baseMed, c.changeMed, c.ratio, c.wins, c.n, signP(c.wins, c.n), c.baseIQR, verdict(g.Better, c, len(pairs)))
}

// signP is the exact one-sided sign-test p: the chance of at least wins
// successes in n fair coin flips.
func signP(wins, n int) float64 {
	num := new(big.Int)
	for k := wins; k <= n; k++ {
		num.Add(num, new(big.Int).Binomial(int64(n), int64(k)))
	}
	p, _ := new(big.Rat).SetFrac(num, new(big.Int).Lsh(big.NewInt(1), uint(n))).Float64()
	return p
}

// quantile interpolates linearly between the sorted samples (type 7).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// copyWorkingTree copies every file git would commit from the working tree
// (tracked and untracked, not ignored) into dst.
func copyWorkingTree(root, dst string) error {
	list, err := output(root, "git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, rel := range strings.Split(strings.TrimRight(list, "\x00"), "\x00") {
		src := filepath.Join(root, rel)
		info, err := os.Lstat(src)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		if err := copyFile(src, filepath.Join(dst, rel), info.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string, perm fs.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// hashTree maps every regular file under dir to its SHA-256.
func hashTree(dir string) (map[string]string, error) {
	h := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		rel, _ := filepath.Rel(dir, path)
		h[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	return h, err
}

// digest hashes the files of a that differ from b (all of a when b is nil)
// and the files only b has: a tree hash, or a diff hash.
func digest(a, b map[string]string) string {
	var lines []string
	for p, s := range a {
		if b == nil || b[p] != s {
			lines = append(lines, p+" "+s+" "+b[p])
		}
	}
	for p, s := range b {
		if _, ok := a[p]; !ok {
			lines = append(lines, p+"  "+s)
		}
	}
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	return strings.TrimSpace(string(b)), err
}

func sh(dir, script string) error {
	cmd := exec.Command("bash", "-c", "set -o pipefail; "+script)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	return cmd.Run()
}
