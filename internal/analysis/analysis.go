// Package analysis answers the paper's title question — "is your graph
// algorithm eligible for nondeterministic execution?" — statically, by
// inspecting the source of update functions instead of probing a run.
// Four passes check the premises the paper's Theorems 1 and 2 rest on:
//
//   - scopecheck: the Section II scope rule — an update function touches
//     only its vertex and incident edges through the VertexView, never
//     captured variables, package state, or its (shared) receiver, and
//     never synchronizes on its own (go/chan/sync/atomic);
//   - conflictclass: the static conflict class (RO / RW / WW) of the
//     update's edge accesses, fed to eligibility.AdviseStatic together
//     with the statically extracted Properties — ineligible combinations
//     become diagnostics;
//   - determinism: sources of run-to-run nondeterminism *inside* the
//     update function (wall clocks, math/rand, map iteration order) that
//     break record/replay and the cross-engine differential suite;
//   - atomicity: packed sub-word read-modify-writes of edge words, which
//     the per-word atomicity realizations of Section III cannot protect.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library only,
// so the repository stays dependency-free. cmd/ndlint drives the passes
// either standalone or as a `go vet -vettool` backend.
//
// Suppression: a diagnostic is silenced by a pragma comment
//
//	//ndlint:ignore <pass> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a pragma without one does not suppress and is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the pass in diagnostics and pragmas.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run executes the pass and may return a pass-specific result (e.g.
	// conflictclass returns the static profiles it derived).
	Run func(*Pass) (any, error)
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportCounter records a diagnostic that carries a machine-readable
// counter-example (the semantic passes' concrete refutation), surfaced
// separately by cmd/ndlint -json.
func (p *Pass) reportCounter(pos token.Pos, counter, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Counter:  counter,
	})
}

// A Diagnostic is one finding, with its resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Category string
	Message  string
	// Counter is the concrete counter-example backing a semantic finding
	// (propcheck/kernelcheck/admitcheck); empty for syntactic passes.
	Counter string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Category, d.Message)
}

// Package is a loaded, type-checked package — the input to RunAnalyzers.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with all maps the passes need populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Default returns the ndlint passes in reporting order: the four
// syntactic passes of PR 5, then the three semantic-verification passes
// (propcheck/kernelcheck/admitcheck) built on the eval.go interpreter.
func Default() []*Analyzer {
	return []*Analyzer{ScopeCheck, ConflictClass, Determinism, Atomicity,
		PropCheck, KernelCheck, AdmitCheck}
}

// RunAnalyzers runs the given passes over pkg, filters pragma-suppressed
// findings, and returns the surviving diagnostics (sorted by position)
// together with each pass's result keyed by analyzer name.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, map[string]any, error) {
	var diags []Diagnostic
	results := make(map[string]any, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		results[a.Name] = res
	}
	diags = filterPragmas(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, results, nil
}

// pragma is one parsed //ndlint:ignore directive.
type pragma struct {
	pass   string // analyzer name or "all"
	reason string
	pos    token.Position
}

const pragmaPrefix = "//ndlint:ignore"

// parsePragmas collects the ndlint directives of every file, keyed by
// filename and line. Malformed directives (no reason) are returned
// separately so the caller can report them.
func parsePragmas(pkg *Package) (map[string]map[int][]pragma, []Diagnostic) {
	byLine := make(map[string]map[int][]pragma)
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, pragmaPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, pragmaPrefix))
				pass, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if pass == "" || reason == "" {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Category: "pragma",
						Message:  "malformed ndlint pragma: want //ndlint:ignore <pass> <reason> — the reason is mandatory",
					})
					continue
				}
				m := byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]pragma)
					byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], pragma{pass: pass, reason: reason, pos: pos})
			}
		}
	}
	return byLine, malformed
}

// filterPragmas removes diagnostics suppressed by a well-formed pragma on
// the same line or the line directly above, and appends diagnostics for
// malformed pragmas.
func filterPragmas(pkg *Package, diags []Diagnostic) []Diagnostic {
	pragmas, malformed := parsePragmas(pkg)
	var kept []Diagnostic
	for _, d := range diags {
		if pragmaCovers(pragmas, d) {
			continue
		}
		kept = append(kept, d)
	}
	return append(kept, malformed...)
}

func pragmaCovers(pragmas map[string]map[int][]pragma, d Diagnostic) bool {
	m := pragmas[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, p := range m[line] {
			if p.pass == d.Category || p.pass == "all" {
				return true
			}
		}
	}
	return false
}
