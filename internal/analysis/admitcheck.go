package analysis

// admitcheck verifies the metric laws of a declared ResidualDelta (the
// telemetry residual gauge's input): when the method's body compiles it
// must be non-negative everywhere and zero exactly on unchanged values,
// as obs.ResidualEstimator assumes. The Theorem 1/2 admission gates are
// not derived here: eligibility.AdviseStatic is their one derivation,
// and Certificates applies it to conflictclass's profile.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AdmitCheck is the residual-metric verification pass.
var AdmitCheck = &Analyzer{
	Name: "admitcheck",
	Doc:  "verify the metric laws of a declared ResidualDelta",
	Run:  runAdmitCheck,
}

// AdmitReport is admitcheck's per-algorithm result — the residual-metric
// slice of the eligibility certificate.
type AdmitReport struct {
	Name string
	Recv string
	// ResidualDelta coverage: declared, compiled, and law-clean.
	HasResidualDelta     bool
	ResidualDeltaChecked bool
	ResidualDeltaOK      bool
	// Counter carries the first ResidualDelta law violation.
	Counter string
}

func runAdmitCheck(pass *Pass) (any, error) {
	ev := newEvaluator(pass)
	var reports []AdmitReport
	for _, u := range FindUpdateFuncs(pass) {
		if u.Recv == nil {
			continue
		}
		r := AdmitReport{Name: u.Name, Recv: u.Recv.Obj().Name()}
		checkResidualDelta(ev, pass, u, &r)
		reports = append(reports, r)
	}
	return reports, nil
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
