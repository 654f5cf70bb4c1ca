// Command ndlint statically answers the paper's title question for the
// update functions in a Go package tree: is your graph algorithm eligible
// for nondeterministic execution? It runs the six internal/analysis
// passes (scopecheck, conflictclass, determinism, atomicity, and the
// semantic pair propcheck, kernelcheck) in one of two modes:
//
// Standalone, over go-list package patterns:
//
//	ndlint ./...
//	ndlint -conflictclass ./internal/algorithms
//
// As a `go vet` backend, speaking the vet-tool protocol (-V=full, -flags,
// and per-package vet.cfg invocations):
//
//	go build -o ndlint ./cmd/ndlint
//	go vet -vettool=$(pwd)/ndlint ./...
//
// With no pass flags every pass runs; naming one or more passes restricts
// the run to those. Diagnostics go to stderr as file:line:col: [pass]
// text; -json switches to one JSON object per line (pass, pos, message,
// counter-example) for CI annotation tooling. The exit status is 2 if any
// diagnostic fired, 1 on driver errors, 0 otherwise. Findings are
// suppressed per line with //ndlint:ignore <pass> <reason>.
//
// Certificate modes (standalone only):
//
//	ndlint -cert ./internal/algorithms            # emit eligibility certificates as JSON
//	ndlint -certcheck certs.json ./internal/algorithms  # detect stale/tampered certificates
//
// -cert refuses to emit when any diagnostic fires (a refuted declaration
// must not certify); -certcheck re-analyzes the packages and reports
// every certificate whose source hash or facts no longer match.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ndgraph/internal/analysis"
	"ndgraph/internal/eligibility"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ndlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ndlint [-<pass>]... [package pattern... | vet.cfg]")
		fs.PrintDefaults()
	}
	vFlag := fs.String("V", "", "print version and exit (used by go vet: -V=full)")
	flagsFlag := fs.Bool("flags", false, "print the analyzer flags as JSON and exit (used by go vet)")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as JSON, one object per line")
	certFlag := fs.Bool("cert", false, "emit eligibility certificates for the packages as JSON (standalone only)")
	certCheckFlag := fs.String("certcheck", "", "compare the certificate `file` against fresh analysis and report stale entries (standalone only)")
	enabled := map[string]*bool{}
	for _, a := range analysis.Default() {
		enabled[a.Name] = fs.Bool(a.Name, false, "run the "+a.Name+" pass (default: all passes)")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// The go command interrogates the tool twice before any package:
	// `-V=full` for a stable tool identity (it feeds the build cache, so
	// it must not look like a devel build) and `-flags` for the flag
	// schema it may forward.
	if *vFlag != "" {
		fmt.Printf("ndlint version v0.1.0-%s\n", selfHash())
		return 0
	}
	if *flagsFlag {
		type schemaFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		out := []schemaFlag{{Name: "json", Bool: true, Usage: "emit diagnostics as JSON, one object per line"}}
		for _, a := range analysis.Default() {
			out = append(out, schemaFlag{Name: a.Name, Bool: true, Usage: "run the " + a.Name + " pass"})
		}
		data, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}

	var analyzers []*analysis.Analyzer
	for _, a := range analysis.Default() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		analyzers = analysis.Default()
	}

	rest := fs.Args()
	if *certFlag {
		return certMode(rest)
	}
	if *certCheckFlag != "" {
		return certCheckMode(*certCheckFlag, rest)
	}
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return vetMode(rest[0], analyzers, *jsonFlag)
	}
	return standalone(rest, analyzers, *jsonFlag)
}

// printDiag renders one diagnostic in the selected format.
func printDiag(d analysis.Diagnostic, asJSON bool) {
	if !asJSON {
		fmt.Fprintln(os.Stderr, d)
		return
	}
	out := struct {
		Pass    string `json:"pass"`
		Pos     string `json:"pos"`
		Message string `json:"message"`
		Counter string `json:"counter,omitempty"`
	}{Pass: d.Category, Pos: d.Pos.String(), Message: d.Message, Counter: d.Counter}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return
	}
	fmt.Fprintln(os.Stderr, string(data))
}

// selfHash returns a short content hash of the running executable, so
// go vet's action cache invalidates when the tool is rebuilt.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// standalone loads package patterns from the current directory's module
// and analyzes them.
func standalone(patterns []string, analyzers []*analysis.Analyzer, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	status := 0
	for _, pkg := range pkgs {
		diags, _, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			return 1
		}
		for _, d := range diags {
			printDiag(d, asJSON)
			status = 2
		}
	}
	return status
}

// certMode emits the eligibility certificates of the given packages as
// JSON on stdout. Emission is refused when any diagnostic fires — a
// refuted declaration must not certify.
func certMode(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	var all []eligibility.Certificate
	for _, pkg := range pkgs {
		certs, diags, err := analysis.Certificates(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			return 1
		}
		if len(diags) > 0 {
			for _, d := range diags {
				fmt.Fprintln(os.Stderr, d)
			}
			fmt.Fprintln(os.Stderr, "ndlint: refusing to emit certificates while diagnostics fire")
			return 2
		}
		all = append(all, certs...)
	}
	data, err := eligibility.EncodeCertificates(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// certCheckMode re-analyzes the packages and compares against a stored
// certificate file: every stored certificate must still exist with the
// same source hash and identical facts. Stale or tampered entries are
// reported and the exit status is 2.
func certCheckMode(file string, patterns []string) int {
	stored, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	oldCerts, err := eligibility.DecodeCertificates(stored)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	var fresh []eligibility.Certificate
	for _, pkg := range pkgs {
		certs, _, err := analysis.Certificates(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			return 1
		}
		fresh = append(fresh, certs...)
	}
	status := 0
	for i := range oldCerts {
		old := &oldCerts[i]
		cur, err := analysis.CertificateFor(fresh, old.Kind, old.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndlint: certificate %s/%s no longer derivable: %v\n", old.Kind, old.Name, err)
			status = 2
			continue
		}
		if old.Stale(cur.SourceHash) {
			fmt.Fprintf(os.Stderr, "ndlint: certificate %s/%s is STALE: stored hash %s, source now hashes to %s — re-run ndlint -cert\n",
				old.Kind, old.Name, old.SourceHash, cur.SourceHash)
			status = 2
		}
	}
	if status == 0 {
		fmt.Printf("ndlint: %d certificate(s) current\n", len(oldCerts))
	}
	return status
}

// vetConfig is the JSON payload the go command writes next to each
// package it vets (see cmd/go/internal/work.vetConfig). Fields this tool
// does not consume are omitted; unknown JSON keys are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetMode analyzes the single package described by a vet.cfg file.
func vetMode(cfgFile string, analyzers []*analysis.Analyzer, asJSON bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ndlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The go command expects the facts file to exist afterwards even
	// though ndlint computes no cross-package facts.
	writeVetx := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			return false
		}
		return true
	}

	// Dependency packages are vetted only for facts; skip the real work.
	if cfg.VetxOnly {
		if !writeVetx() {
			return 1
		}
		return 0
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, err := analysis.TypeCheckFiles(cfg.ImportPath, cfg.Dir, cfg.GoFiles, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			if !writeVetx() {
				return 1
			}
			return 0
		}
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}

	diags, _, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		return 1
	}
	if !writeVetx() {
		return 1
	}
	if len(diags) > 0 {
		for _, d := range diags {
			printDiag(d, asJSON)
		}
		return 2
	}
	return 0
}
