package analysis

// kernelcheck covers the surface PR 7 added without static checks: the
// paired-direction algorithms.Kernel literals behind the hybrid engine.
// One (Message, Better) pair serves both push and pull, so the direction
// switch is sound only if Message is pure (same offer whichever side
// computes it) and Better is a strict improvement test — irreflexive, or
// the run never quiesces; antisymmetric, or two workers can improve each
// other's value forever. The pass finds every Kernel composite literal,
// compiles Message/Better with the evaluator, and checks the order laws
// bounded-exhaustively; the declared FirstOfferWins flag is validated
// against what the code actually supports.
//
// Suppression: beyond the generic same-line/line-above pragma filter, a
// //ndlint:ignore kernelcheck <reason> pragma on the *constructor* — its
// declaration line, the line above, or its doc comment — silences the
// pass for every kernel built inside it (kernels are values built in
// constructors, so the natural place to annotate is the constructor, not
// the field the diagnostic lands on).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"math"
)

// constant extraction helpers tolerant of nil (non-constant) values.
func constantString(cv constant.Value) string {
	if cv != nil && cv.Kind() == constant.String {
		return constant.StringVal(cv)
	}
	return ""
}

func constantBool(cv constant.Value) bool {
	return cv != nil && cv.Kind() == constant.Bool && constant.BoolVal(cv)
}

func constantUint(cv constant.Value) (uint64, bool) {
	if cv == nil || cv.Kind() != constant.Int {
		return 0, false
	}
	return constant.Uint64Val(cv)
}

// KernelCheck is the kernel-pair verification pass.
var KernelCheck = &Analyzer{
	Name: "kernelcheck",
	Doc: "verify hybrid-engine kernel pairs: Better is a strict partial " +
		"order (irreflexive, antisymmetric, transitive, total modulo float " +
		"equivalence), Message is pure, and a FirstOfferWins flag " +
		"matches the code",
	Run: runKernelCheck,
}

// KernelFacts is what the pass established about one kernel literal —
// the kernelcheck slice of the eligibility certificate.
type KernelFacts struct {
	// MessageCompiled / BetterCompiled report evaluator coverage; laws
	// below are meaningful only when BetterCompiled.
	MessageCompiled bool `json:"message_compiled"`
	BetterCompiled  bool `json:"better_compiled"`
	// The order laws of Better over the word domain.
	BetterIrreflexive   bool `json:"better_irreflexive"`
	BetterAntisymmetric bool `json:"better_antisymmetric"`
	BetterTransitive    bool `json:"better_transitive"`
	// BetterTotal is totality modulo equivalence: for distinct words that
	// are not float-equal (and not NaN), one direction must improve.
	BetterTotal bool `json:"better_total"`
	// DirectionConsistent: push and pull compute identical offers and
	// accept them identically — Message compiled (hence pure: the
	// evaluator's fragment is effect-free) and Better is a verified
	// strict order.
	DirectionConsistent bool `json:"direction_consistent"`
	// FirstOfferWins flag and its checked obligations
	// ∀w ¬Better(Unreached, w): the unreached word never beats anything,
	// so a first offer is never displaced by the initial state; and, when
	// Message compiles, ∀w ≠ Unreached, e: Message(w, e) ≠ Unreached: a
	// reached vertex never offers the unreached word, which would leave
	// its neighbor unreached and scheduled while it is written. The
	// checks run only when the Unreached expression is evaluable
	// (FirstOfferWinsChecked).
	FirstOfferWinsDeclared bool   `json:"first_offer_wins_declared"`
	FirstOfferWinsChecked  bool   `json:"first_offer_wins_checked"`
	FirstOfferWinsSound    bool   `json:"first_offer_wins_sound"`
	Unreached              uint64 `json:"unreached,omitempty"`
	// Counter is the first law counter-example, Note the reason a
	// function did not compile.
	Counter string `json:"counter,omitempty"`
	Note    string `json:"note,omitempty"`
}

// KernelReport is kernelcheck's per-kernel-literal result.
type KernelReport struct {
	// Name is the kernel's Name field when constant ("wcc", "bfs", …).
	Name string
	// Constructor is the enclosing function's name.
	Constructor string
	Facts       KernelFacts
	// Hash is the FNV-1a source identity of the composite literal.
	Hash string
	// Suppressed records a constructor-level pragma hit (the report is
	// still produced for certificates; only diagnostics are muted).
	Suppressed bool
}

func runKernelCheck(pass *Pass) (any, error) {
	ev := newEvaluator(pass)
	pragmas, _ := parsePragmas(&Package{Fset: pass.Fset, Files: pass.Files})
	var reports []KernelReport

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		var ctor *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				ctor = fd
				return true
			}
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(lit)
			if t == nil || !isKernelType(t) {
				return true
			}
			r := analyzeKernel(ev, lit)
			if ctor != nil {
				r.Constructor = ctor.Name.Name
				r.Suppressed = ctorPragmaCovers(pass, pragmas, ctor, pass.Analyzer.Name)
			}
			reports = append(reports, r)
			if !r.Suppressed {
				reportKernel(pass, lit, r)
			}
			return true
		})
	}
	return reports, nil
}

// isKernelType matches the algorithms.Kernel shape structurally: a named
// struct type called Kernel with Message func(uint64, uint32) uint64 and
// Better func(uint64, uint64) bool fields. Structural matching keeps the
// pass usable on fixture replicas, exactly like IsVertexView.
func isKernelType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Kernel" {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var haveMessage, haveBetter bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		sig, ok := f.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch f.Name() {
		case "Message":
			haveMessage = sigShape(sig, []types.BasicKind{types.Uint64, types.Uint32}, types.Uint64)
		case "Better":
			haveBetter = sigShape(sig, []types.BasicKind{types.Uint64, types.Uint64}, types.Bool)
		}
	}
	return haveMessage && haveBetter
}

func sigShape(sig *types.Signature, params []types.BasicKind, result types.BasicKind) bool {
	if sig.Params().Len() != len(params) || sig.Results().Len() != 1 {
		return false
	}
	for i, want := range params {
		b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
		if !ok || b.Kind() != want {
			return false
		}
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == result
}

// kernelLit is the parsed composite literal.
type kernelLit struct {
	name           string
	message        *ast.FuncLit
	better         *ast.FuncLit
	firstOfferWins bool
	undirected     bool
	// unreachedExpr is the Unreached field value — not necessarily a
	// compile-time constant (the builtin BFS kernel uses
	// edgedata.FromFloat64(math.Inf(1))), so it is evaluated, not
	// constant-folded.
	unreachedExpr ast.Expr
}

func parseKernelLit(pass *Pass, lit *ast.CompositeLit) kernelLit {
	var k kernelLit
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		cv := pass.Info.Types[kv.Value].Value
		switch key.Name {
		case "Name":
			if cv != nil {
				k.name = constantString(cv)
			}
		case "Message":
			if fl, ok := kv.Value.(*ast.FuncLit); ok {
				k.message = fl
			}
		case "Better":
			if fl, ok := kv.Value.(*ast.FuncLit); ok {
				k.better = fl
			}
		case "FirstOfferWins":
			k.firstOfferWins = constantBool(cv)
		case "Undirected":
			k.undirected = constantBool(cv)
		case "Unreached":
			k.unreachedExpr = kv.Value
		}
	}
	return k
}

func analyzeKernel(ev *evaluator, lit *ast.CompositeLit) KernelReport {
	pass := ev.pass
	k := parseKernelLit(pass, lit)
	r := KernelReport{Name: k.name, Hash: srcHash(pass.Fset, lit)}
	facts := &r.Facts
	facts.FirstOfferWinsDeclared = k.firstOfferWins

	// Evaluate the Unreached word (a closed expression, not necessarily
	// a constant).
	haveUnreached := false
	var unreached uint64
	if k.unreachedExpr != nil {
		if c, err := ev.compileExprWith(nil, nil, k.unreachedExpr); err == nil && len(c.frees) == 0 {
			if v, err := c.fn(nil, nil); err == nil && v.k == kindUint {
				unreached = v.u
				haveUnreached = true
				facts.Unreached = v.u
			}
		}
	}

	// Message: compile (purity by construction).
	var message compiled
	if k.message == nil {
		facts.Note = "Message is not a function literal"
	} else if c, err := ev.compileFunc(litParams(pass, k.message), k.message.Body, k.message); err == nil {
		facts.MessageCompiled = true
		message = c
	} else if facts.Note == "" {
		facts.Note = fmt.Sprintf("Message: %v", err)
	}

	// Better: compile and sweep the order laws over the word domain.
	if k.better == nil {
		if facts.Note == "" {
			facts.Note = "Better is not a function literal"
		}
	} else {
		c, err := ev.compileFunc(litParams(pass, k.better), k.better.Body, k.better)
		if err != nil {
			if facts.Note == "" {
				facts.Note = fmt.Sprintf("Better: %v", err)
			}
		} else {
			facts.BetterCompiled = true
			checkBetterLaws(facts, c)
			if k.firstOfferWins && haveUnreached {
				facts.FirstOfferWinsChecked = true
				checkFirstOfferWins(facts, c, unreached)
				if facts.MessageCompiled {
					checkNoUnreachedOffer(facts, message, unreached)
				}
			} else if k.firstOfferWins && facts.Note == "" {
				facts.Note = "FirstOfferWins declared but the Unreached expression is not evaluable"
			}
		}
	}

	facts.DirectionConsistent = facts.MessageCompiled && facts.BetterCompiled &&
		facts.BetterIrreflexive && facts.BetterAntisymmetric && facts.BetterTransitive
	return r
}

// reportKernel emits the diagnostics for one analyzed kernel.
func reportKernel(pass *Pass, lit *ast.CompositeLit, r KernelReport) {
	f := r.Facts
	name := r.Name
	if name == "" {
		name = "kernel"
	}
	pos := lit.Pos()
	if f.BetterCompiled {
		if !f.BetterIrreflexive {
			pass.reportCounter(pos, f.Counter,
				"kernel %q: Better is not irreflexive (%s) — a vertex improves on its own value, so the computation never quiesces", name, f.Counter)
		}
		if !f.BetterAntisymmetric {
			pass.reportCounter(pos, f.Counter,
				"kernel %q: Better is not antisymmetric (%s) — two values each improve on the other, so push and pull can disagree on the fixed point", name, f.Counter)
		}
		if !f.BetterTransitive {
			pass.reportCounter(pos, f.Counter,
				"kernel %q: Better is not transitive (%s) — improvement chains can cycle", name, f.Counter)
		}
		if !f.BetterTotal {
			pass.reportCounter(pos, f.Counter,
				"kernel %q: Better is not total (%s) — some distinct value pairs are incomparable, so convergence depends on arrival order", name, f.Counter)
		}
		if f.FirstOfferWinsDeclared && f.FirstOfferWinsChecked && !f.FirstOfferWinsSound {
			pass.reportCounter(pos, f.Counter,
				"kernel %q declares FirstOfferWins but %s — Unreached must be a bottom no offer equals, or the level-synchronous pull optimizations break", name, f.Counter)
		}
	}
}

// checkBetterLaws sweeps irreflexivity, antisymmetry, transitivity, and
// totality-modulo-equivalence over the word domain, under every free
// assignment.
func checkBetterLaws(f *KernelFacts, c compiled) {
	f.BetterIrreflexive = true
	f.BetterAntisymmetric = true
	f.BetterTransitive = true
	f.BetterTotal = true
	words := wordDomain()
	for _, fr := range freeAssignments(c.frees) {
		better := func(a, b uint64) (bool, bool) {
			v, err := c.fn([]val{vUint(a, 64), vUint(b, 64)}, fr)
			if err != nil || v.k != kindBool {
				return false, false
			}
			return v.b, true
		}
		for _, w1 := range words {
			if b, ok := better(w1, w1); ok && b && f.BetterIrreflexive {
				f.BetterIrreflexive = false
				if f.Counter == "" {
					f.Counter = fmt.Sprintf("Better(%#x, %#x) = true", w1, w1)
				}
			}
			for _, w2 := range words {
				b12, ok1 := better(w1, w2)
				b21, ok2 := better(w2, w1)
				if !ok1 || !ok2 {
					continue
				}
				if w1 != w2 && b12 && b21 && f.BetterAntisymmetric {
					f.BetterAntisymmetric = false
					if f.Counter == "" {
						f.Counter = fmt.Sprintf("Better(%#x, %#x) and Better(%#x, %#x) are both true", w1, w2, w2, w1)
					}
				}
				if w1 != w2 && !b12 && !b21 && !floatEquivalent(w1, w2) && f.BetterTotal {
					f.BetterTotal = false
					if f.Counter == "" {
						f.Counter = fmt.Sprintf("neither Better(%#x, %#x) nor Better(%#x, %#x)", w1, w2, w2, w1)
					}
				}
				if !b12 {
					continue
				}
				for _, w3 := range words {
					b23, ok3 := better(w2, w3)
					b13, ok4 := better(w1, w3)
					if ok3 && ok4 && b23 && !b13 && f.BetterTransitive {
						f.BetterTransitive = false
						if f.Counter == "" {
							f.Counter = fmt.Sprintf("Better(%#x,%#x) and Better(%#x,%#x) but not Better(%#x,%#x)", w1, w2, w2, w3, w1, w3)
						}
					}
				}
			}
		}
	}
}

// checkFirstOfferWins verifies ∀w ¬Better(Unreached, w): the initial
// word is a bottom element that never displaces an offer.
func checkFirstOfferWins(f *KernelFacts, c compiled, unreached uint64) {
	f.FirstOfferWinsSound = true
	for _, fr := range freeAssignments(c.frees) {
		for _, w := range wordDomain() {
			v, err := c.fn([]val{vUint(unreached, 64), vUint(w, 64)}, fr)
			if err != nil || v.k != kindBool {
				continue
			}
			if v.b && f.FirstOfferWinsSound {
				f.FirstOfferWinsSound = false
				if f.Counter == "" {
					f.Counter = fmt.Sprintf("Better(Unreached=%#x, %#x) = true", unreached, w)
				}
			}
		}
	}
}

// checkNoUnreachedOffer verifies ∀w ≠ Unreached, e: Message(w, e) ≠
// Unreached over the word domain and a few edge indices: a reached vertex
// never offers the unreached word. A hybrid bottom-up sweep reads a
// neighbor's word with plain loads only because that neighbor, once
// reached, is never written again.
func checkNoUnreachedOffer(f *KernelFacts, c compiled, unreached uint64) {
	for _, fr := range freeAssignments(c.frees) {
		for _, w := range wordDomain() {
			if w == unreached {
				continue
			}
			for _, e := range []uint32{0, 1, 7, 1 << 31, math.MaxUint32} {
				v, err := c.fn([]val{vUint(w, 64), vUint(uint64(e), 32)}, fr)
				if err == nil && v.k == kindUint && v.u == unreached {
					f.FirstOfferWinsSound = false
					if f.Counter == "" {
						f.Counter = fmt.Sprintf("Message(%#x, %d) = Unreached=%#x", w, e, unreached)
					}
					return
				}
			}
		}
	}
}

// floatEquivalent excuses totality for word pairs indistinguishable as
// float64 payloads: equal decodes (0 vs −0) or NaN on either side.
// Pure coverage loss — it can mask a missing comparison on such pairs,
// never produce a false diagnostic.
func floatEquivalent(w1, w2 uint64) bool {
	f1, f2 := math.Float64frombits(w1), math.Float64frombits(w2)
	return f1 == f2 || math.IsNaN(f1) || math.IsNaN(f2)
}

// litParams collects a function literal's parameter objects in slot
// order (nil for blank/unnamed parameters).
func litParams(pass *Pass, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	for _, field := range lit.Type.Params.List {
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

// ctorPragmaCovers checks for a //ndlint:ignore <pass> <reason> pragma
// attached to the constructor: on its declaration line, the line above,
// or any line of its doc comment — the kernel-path suppression fix.
func ctorPragmaCovers(pass *Pass, pragmas map[string]map[int][]pragma, ctor *ast.FuncDecl, name string) bool {
	declPos := pass.Fset.Position(ctor.Pos())
	m := pragmas[declPos.Filename]
	if m == nil {
		return false
	}
	lines := []int{declPos.Line, declPos.Line - 1}
	if ctor.Doc != nil {
		start := pass.Fset.Position(ctor.Doc.Pos()).Line
		end := pass.Fset.Position(ctor.Doc.End()).Line
		for l := start; l <= end; l++ {
			lines = append(lines, l)
		}
	}
	for _, l := range lines {
		for _, p := range m[l] {
			if p.pass == name || p.pass == "all" {
				return true
			}
		}
	}
	return false
}
