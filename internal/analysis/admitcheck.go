package analysis

// admitcheck guards the engine admission gate itself. async.NoSync
// (barrier-free execution, Theorem 1/2 required) admits algorithms on
// declared facts. The pass re-derives the theorem class from first
// principles — the paper's two sufficient conditions applied to the
// static access profile and the extracted Properties — and cross-checks
// the result against the *live* library gate
// (eligibility.AdviseStatic → Verdict.NoSync); any disagreement is a
// drift tripwire diagnostic, catching edits to the eligibility logic
// that silently change which algorithms the engines accept. For
// algorithms that declare a ResidualDelta method (the telemetry residual
// gauge's input) it additionally verifies, when the method's body
// compiles, the metric laws obs.ResidualEstimator assumes: non-negative
// everywhere and zero exactly on unchanged values.

import (
	"fmt"
	"go/ast"
	"go/types"

	"ndgraph/internal/eligibility"
)

// AdmitCheck is the admission-gate verification pass.
var AdmitCheck = &Analyzer{
	Name: "admitcheck",
	Doc: "re-derive Theorem 1/2 admission from the static profile and " +
		"declared Properties, cross-check against the live NoSync gate, " +
		"and verify the metric laws of a declared ResidualDelta",
	Run: runAdmitCheck,
}

// AdmitReport is admitcheck's per-algorithm result — the admission slice
// of the eligibility certificate.
type AdmitReport struct {
	Name string
	Recv string
	// Profile is the static access profile the derivation used.
	Profile eligibility.StaticProfile
	// Props is the extracted declaration (nil ⇒ no report facts below).
	Props *eligibility.Properties
	// Theorem is the independently re-derived class (0 = not eligible).
	Theorem int
	// DeterministicResults and NoSyncOK are the re-derived gate
	// outcomes, cross-checked against the library.
	DeterministicResults bool
	NoSyncOK             bool
	// ResidualDelta coverage: declared, compiled, and law-clean.
	HasResidualDelta     bool
	ResidualDeltaChecked bool
	ResidualDeltaOK      bool
	// Counter carries the first ResidualDelta law violation.
	Counter string
	// Hash matches propcheck's source identity for the same update.
	Hash string
}

func runAdmitCheck(pass *Pass) (any, error) {
	ev := newEvaluator(pass)
	c := &classifier{
		pass:  pass,
		decls: indexFuncDecls(pass),
		memo:  map[*ast.FuncDecl]eligibility.StaticProfile{},
		busy:  map[*ast.FuncDecl]bool{},
	}
	var reports []AdmitReport
	for _, u := range FindUpdateFuncs(pass) {
		if u.Recv == nil {
			continue
		}
		props, ok := extractProperties(pass, u.Recv)
		if !ok {
			continue // conflictclass already reports unreadable Properties
		}
		r := AdmitReport{
			Name:    u.Name,
			Recv:    u.Recv.Obj().Name(),
			Profile: c.profileOfBody(u.Body),
			Props:   &props,
			Hash:    updateHash(pass, u),
		}
		deriveAdmission(&r)
		crossCheckGates(pass, u, r)
		checkResidualDelta(ev, pass, u, &r)
		reports = append(reports, r)
	}
	return reports, nil
}

// deriveAdmission applies the paper's sufficient conditions directly —
// an implementation independent of eligibility.Advise, so the two can
// disagree only if one of them drifted.
func deriveAdmission(r *AdmitReport) {
	p := *r.Props
	ww := r.Profile.PotentialWW()
	rw := r.Profile.PotentialRW()
	switch {
	case !ww && !rw:
		// No edge conflicts are possible: concurrent updates never
		// compete, nondeterministic execution is trivially covered.
		r.Theorem = 1
	case ww:
		// Write-write conflicts corrupt values; only Theorem 2's
		// monotone-recovery argument admits them.
		if p.ConvergesDetAsync && p.Monotonic {
			r.Theorem = 2
		}
	default:
		// Read-write only: Theorem 1 needs a convergence chain under
		// some deterministic schedule.
		if p.ConvergesSynchronously || p.ConvergesDetAsync {
			r.Theorem = 1
		}
	}
	r.DeterministicResults = r.Theorem != 0 && p.Monotonic && p.Convergence == eligibility.Absolute
	r.NoSyncOK = r.Theorem == 1 || r.Theorem == 2
}

// crossCheckGates compares the re-derived admission with what the
// library actually answers today.
func crossCheckGates(pass *Pass, u UpdateFn, r AdmitReport) {
	v := eligibility.AdviseStatic(*r.Props, r.Profile)
	libNoSync := v.NoSync() == nil
	if v.Theorem != r.Theorem || libNoSync != r.NoSyncOK ||
		v.DeterministicResults != r.DeterministicResults {
		pass.Reportf(u.Pos().Pos(),
			"admission gate drift for %s: paper-derived (theorem=%d nosync=%v det=%v) disagrees with eligibility library (theorem=%d nosync=%v det=%v) — the Advise/NoSync logic no longer matches the paper's sufficient conditions",
			u.Name, r.Theorem, r.NoSyncOK, r.DeterministicResults,
			v.Theorem, libNoSync, v.DeterministicResults)
	}
}

// checkResidualDelta verifies the laws of a declared residual metric when
// its body is in the evaluator's fragment.
func checkResidualDelta(ev *evaluator, pass *Pass, u UpdateFn, r *AdmitReport) {
	decl := findMethodDecl(pass, u.Recv, "ResidualDelta")
	if decl == nil {
		return
	}
	r.HasResidualDelta = true
	if !residualDeltaShape(pass, decl) {
		pass.Reportf(decl.Pos(),
			"%s.ResidualDelta must have signature func(old, new uint64) float64 to serve as the telemetry residual metric", r.Recv)
		return
	}
	params := declParams(pass, decl)
	c, err := ev.compileFunc(params, decl.Body, decl)
	if err != nil {
		return // outside the fragment: unverified, recorded in the cert
	}
	r.ResidualDeltaChecked = true
	r.ResidualDeltaOK = true
	words := wordDomain()
	for _, fr := range freeAssignments(c.frees) {
		rd := func(old, new uint64) (float64, bool) {
			v, err := c.fn([]val{vUint(old, 64), vUint(new, 64)}, fr)
			if err != nil || v.k != kindFloat || v.isNaN() {
				return 0, false
			}
			return v.f, true
		}
		for _, w := range words {
			// Zero on unchanged values: RD(w, w) == 0.
			if d, ok := rd(w, w); ok && d != 0 && r.ResidualDeltaOK {
				r.ResidualDeltaOK = false
				r.Counter = fmt.Sprintf("ResidualDelta(%#x, %#x) = %g, want 0 for an unchanged value", w, w, d)
			}
			for _, w2 := range words {
				d, ok := rd(w, w2)
				if !ok {
					continue
				}
				// Non-negative everywhere.
				if d < 0 && r.ResidualDeltaOK {
					r.ResidualDeltaOK = false
					r.Counter = fmt.Sprintf("ResidualDelta(%#x, %#x) = %g < 0", w, w2, d)
				}
				// Zero only on unchanged values (modulo float-equal
				// payloads like 0 vs −0).
				if d == 0 && w != w2 && !floatEquivalent(w, w2) && r.ResidualDeltaOK {
					r.ResidualDeltaOK = false
					r.Counter = fmt.Sprintf("ResidualDelta(%#x, %#x) = 0 but the values differ — the residual gauge would read converged on a still-moving run", w, w2)
				}
			}
		}
	}
	if !r.ResidualDeltaOK {
		pass.reportCounter(decl.Pos(), r.Counter,
			"%s.ResidualDelta violates the residual metric laws: %s", r.Recv, r.Counter)
	}
}

// residualDeltaShape checks the func(uint64, uint64) float64 method shape.
func residualDeltaShape(pass *Pass, decl *ast.FuncDecl) bool {
	obj := pass.Info.Defs[decl.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sigShape(sig, []types.BasicKind{types.Uint64, types.Uint64}, types.Float64)
}

// declParams collects a declaration's parameter objects in slot order.
func declParams(pass *Pass, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, pass.Info.Defs[name])
		}
	}
	return out
}
