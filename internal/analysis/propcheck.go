package analysis

// propcheck verifies the declared eligibility.Properties against what the
// update function's merge actually computes. conflictclass (PR 5) only
// *extracts* the declaration; a wrong Monotonic claim would silently
// admit an ineligible algorithm to the NoSync tier. This
// pass closes the gap for the merge shapes the built-in algorithms use:
// it recognizes the gather loop's accumulator update, compiles it with
// the evaluator into a step function m : Acc × Word → Acc, and checks
// the semilattice laws bounded-exhaustively over the word domain. A
// declared-Monotonic merge that fails commutativity, associativity, or
// idempotence is a diagnostic carrying a concrete counter-example
// triple; a merge the extractor cannot handle is recorded as unverified
// in the pass result (and the certificate), never reported — soundness
// caveat: silence is "not disproven", only a counter-example is a fact.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"strings"

	"ndgraph/internal/eligibility"
)

// PropCheck is the property-verification pass.
var PropCheck = &Analyzer{
	Name: "propcheck",
	Doc: "verify declared Properties (monotone merge ⇒ commutative, " +
		"associative, idempotent) against the update function's gather " +
		"loop by bounded-exhaustive evaluation; report counter-examples",
	Run: runPropCheck,
}

// MergeFacts records what the evaluator established about one update
// function's merge — the propcheck slice of the eligibility certificate.
type MergeFacts struct {
	// Extracted reports whether a merge step function was recognized and
	// compiled; when false every law below is meaningless and Note says
	// why (unsupported shape, too many captures, disagreeing sites).
	Extracted bool `json:"extracted"`
	// Sites is the number of gather sites that contributed (they must
	// agree pointwise; WCC's in- and out-loops are two sites, one merge).
	Sites int `json:"sites"`
	// AccKind names the accumulator space: "uint64" or "float64".
	AccKind string `json:"acc_kind,omitempty"`
	// Commutative / Associative / Idempotent are the checked semilattice
	// laws. Associative is meaningful only when AssocChecked is true (the
	// acc-space embedding must round-trip through words).
	Commutative  bool `json:"commutative"`
	Associative  bool `json:"associative"`
	Idempotent   bool `json:"idempotent"`
	AssocChecked bool `json:"assoc_checked"`
	// SemilatticeVerified is the conjunction backing a Monotonic claim:
	// all three laws checked and held.
	SemilatticeVerified bool `json:"semilattice_verified"`
	// Counter is the first counter-example found, empty when laws hold.
	Counter string `json:"counter,omitempty"`
	// Note explains a false Extracted.
	Note string `json:"note,omitempty"`
}

// PropReport is propcheck's per-update-function result.
type PropReport struct {
	Name  string
	Recv  string
	Props *eligibility.Properties
	Merge MergeFacts
	// Hash is the FNV-1a source identity of the update function plus its
	// Properties declaration — the certificate key.
	Hash string
}

func runPropCheck(pass *Pass) (any, error) {
	ev := newEvaluator(pass)
	var reports []PropReport
	for _, u := range FindUpdateFuncs(pass) {
		r := PropReport{Name: u.Name, Hash: updateHash(pass, u)}
		if u.Recv != nil {
			r.Recv = u.Recv.Obj().Name()
			if props, ok := extractProperties(pass, u.Recv); ok {
				r.Props = &props
			}
		}
		r.Merge = checkMerge(ev, u)
		reports = append(reports, r)

		// The diagnostic needs both sides of the contradiction: a
		// statically readable Monotonic declaration and a successfully
		// compiled merge whose laws refute it.
		if r.Props != nil && r.Props.Monotonic && r.Merge.Extracted && !r.Merge.SemilatticeVerified {
			law := "semilattice laws"
			switch {
			case !r.Merge.Commutative:
				law = "commutativity"
			case !r.Merge.Idempotent:
				law = "idempotence"
			case r.Merge.AssocChecked && !r.Merge.Associative:
				law = "associativity"
			}
			// The counter string already leads with the law name; strip
			// it so the diagnostic does not read "idempotence:
			// idempotence:".
			counter := strings.TrimPrefix(r.Merge.Counter, law+": ")
			pass.reportCounter(u.Pos().Pos(), r.Merge.Counter,
				"%s declares Monotonic but its merge violates %s: %s — a write-write race on this merge does not self-correct, so the Theorem 2 premise is false",
				u.Name, law, counter)
		}
	}
	return reports, nil
}

// updateHash computes the certificate source identity for one update
// function: the update declaration plus the receiver's Properties method
// (the two sources every admission fact derives from). Any token-level
// edit to either changes the hash.
func updateHash(pass *Pass, u UpdateFn) string {
	nodes := []ast.Node{u.Pos()}
	if u.Recv != nil {
		if d := findMethodDecl(pass, u.Recv, "Properties"); d != nil {
			nodes = append(nodes, d)
		}
	}
	return srcHash(pass.Fset, nodes...)
}

// mergeStep is one compiled merge: step applies one incoming edge word
// to the accumulator; lift embeds a word into the accumulator space;
// encode inverts lift (verified empirically before use).
type mergeStep struct {
	step    func(a val, w uint64, frees []val) (val, error)
	lift    func(w uint64, frees []val) (val, error)
	accKind valKind
	accBits uint8
}

// checkMerge extracts, compiles, and law-checks the update's merge.
func checkMerge(ev *evaluator, u UpdateFn) MergeFacts {
	sites, note := findMergeSites(ev.pass, u)
	if note != "" {
		return MergeFacts{Note: note}
	}
	if len(sites) == 0 {
		return MergeFacts{Note: "no gather sites (no accumulator update over edge reads)"}
	}

	// All sites compile against one shared free-symbol table so a single
	// assignment enumeration covers every site consistently.
	var frees []freeSym
	freeIdx := map[string]int{}
	var steps []mergeStep
	for _, s := range sites {
		step, err := compileSite(ev, u, s, &frees, freeIdx)
		if err != nil {
			return MergeFacts{Sites: len(sites), Note: fmt.Sprintf("site at %s: %v", ev.pass.Fset.Position(s.pos), err)}
		}
		steps = append(steps, step)
	}
	for _, s := range steps[1:] {
		if s.accKind != steps[0].accKind || s.accBits != steps[0].accBits {
			return MergeFacts{Sites: len(sites), Note: "gather sites target accumulators of different types"}
		}
	}

	facts := lawCheck(steps, frees)
	facts.Sites = len(sites)
	return facts
}

// site is one recognized gather statement inside a loop that reads edge
// values.
type site struct {
	pos token.Pos
	// acc is the accumulator object (declared before the loop).
	acc types.Object
	// reads are the edge-word expressions this site consumes (see
	// wordReads); all of them denote the same word during one application.
	reads []ast.Expr
	// form discriminates the compile strategy.
	form int
	// Form 1 (if-init): ifInit is `x := E(read)`, cond the condition,
	// assignRHS the body's right-hand side. Forms 2/3/4 use cond (form 3),
	// assignRHS and assignOp (token.ASSIGN for plain, the op for op=).
	ifInitObj types.Object
	ifInitRHS ast.Expr
	cond      ast.Expr
	assignRHS ast.Expr
	assignOp  token.Token
}

const (
	formIfInit   = 1 // if x := E(read); cond { acc = rhs }
	formOpAssign = 2 // acc op= E(read)
	formIfPlain  = 3 // if cond(read, acc) { acc = rhs(read) }
	formAssign   = 4 // acc = RHS(read, acc)
)

// findMergeSites walks the update body's loops and recognizes gather
// sites. A loop whose edge reads feed no accumulator (a scatter loop
// guarding Set* calls) contributes nothing; a read-bearing statement
// that updates an accumulator through an unrecognized shape poisons the
// extraction (non-"" note) rather than being silently dropped.
func findMergeSites(pass *Pass, u UpdateFn) ([]site, string) {
	var sites []site
	note := ""
	wr := newWordReads(pass, u)
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if note != "" {
			return false
		}
		var loop ast.Stmt
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loop, body = l, l.Body
		case *ast.RangeStmt:
			loop, body = l, l.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if note != "" {
				return false
			}
			switch st := m.(type) {
			case *ast.IfStmt:
				if s, ok, bad := ifSite(wr, u, loop, st); bad != "" {
					note = bad
					return false
				} else if ok {
					sites = append(sites, s)
					return false // consumed; don't descend into the body
				}
				// An if whose reads guard non-merge work (WCC's scatter
				// correction, SSSP's candidate rewrite) is not a site;
				// descend in case a nested statement is.
				return true
			case *ast.AssignStmt:
				if s, ok, bad := assignSite(wr, u, loop, st); bad != "" {
					note = bad
					return false
				} else if ok {
					sites = append(sites, s)
					return false
				}
				return true
			}
			return true
		})
		return true // nested loops handled by the outer Inspect
	})
	return sites, note
}

// wordReads recognizes the expressions of one update function that
// denote "the current edge word" of a gather loop: a per-edge call
// view.InEdgeVal(k); an element ws[k] of a bulk read (ws :=
// view.InEdgeVals(), or the call indexed directly); and a use of the
// value variable of a range over a bulk read (for _, w := range
// view.InEdgeVals()).
type wordReads struct {
	pass   *Pass
	slices map[types.Object]string // variables holding a bulk read
	words  map[types.Object]bool   // range value variables over one
}

func newWordReads(pass *Pass, u UpdateFn) *wordReads {
	wr := &wordReads{pass: pass, slices: bulkSlices(pass, u.Body), words: map[types.Object]bool{}}
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if _, ok := bulkDir(pass, wr.slices, r.X); ok {
				if id, ok := r.Value.(*ast.Ident); ok && id.Name != "_" {
					wr.words[identObject(pass, id)] = true
				}
			}
		}
		return true
	})
	return wr
}

// in collects the edge-word expressions inside expr.
func (wr *wordReads) in(expr ast.Expr) []ast.Expr {
	var out []ast.Expr
	if expr == nil {
		return nil
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if name, ok := viewCall(wr.pass, e); ok && (name == "InEdgeVal" || name == "OutEdgeVal") {
				out = append(out, e)
			}
		case *ast.IndexExpr:
			if _, ok := bulkDir(wr.pass, wr.slices, e.X); ok {
				out = append(out, e)
				return false
			}
		case *ast.Ident:
			if wr.words[wr.pass.Info.Uses[e]] {
				out = append(out, e)
			}
		}
		return true
	})
	return out
}

// accObject resolves an assignment target to an accumulator: a plain
// identifier naming a variable declared inside the update function but
// before the loop.
func accObject(pass *Pass, u UpdateFn, loop ast.Stmt, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := identObject(pass, id)
	if obj == nil || !declaredWithin(obj, u.Pos()) || obj.Pos() >= loop.Pos() {
		return nil
	}
	return obj
}

// ifSite recognizes forms 1 and 3. Returns (site, ok, poisonNote).
func ifSite(wr *wordReads, u UpdateFn, loop ast.Stmt, st *ast.IfStmt) (site, bool, string) {
	pass := wr.pass
	if st.Else != nil || len(st.Body.List) != 1 {
		return site{}, false, ""
	}
	asg, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return site{}, false, ""
	}
	acc := accObject(pass, u, loop, asg.Lhs[0])
	if acc == nil {
		return site{}, false, ""
	}

	if st.Init != nil { // form 1
		init, ok := st.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return site{}, false, ""
		}
		reads := wr.in(init.Rhs[0])
		if len(reads) == 0 {
			return site{}, false, ""
		}
		if len(reads) > 1 {
			return site{}, false, fmt.Sprintf("gather at %s reads two different edge words in one init", pass.Fset.Position(st.Pos()))
		}
		if len(wr.in(st.Cond)) != 0 || len(wr.in(asg.Rhs[0])) != 0 {
			return site{}, false, fmt.Sprintf("gather at %s re-reads the edge outside its init binding", pass.Fset.Position(st.Pos()))
		}
		id, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return site{}, false, ""
		}
		return site{
			pos:       st.Pos(),
			acc:       acc,
			reads:     reads,
			form:      formIfInit,
			ifInitObj: pass.Info.Defs[id],
			ifInitRHS: init.Rhs[0],
			cond:      st.Cond,
			assignRHS: asg.Rhs[0],
			assignOp:  token.ASSIGN,
		}, true, ""
	}

	// form 3: reads appear directly in the condition and/or body.
	reads := append(wr.in(st.Cond), wr.in(asg.Rhs[0])...)
	if len(reads) == 0 {
		return site{}, false, ""
	}
	return site{
		pos:       st.Pos(),
		acc:       acc,
		reads:     reads,
		form:      formIfPlain,
		cond:      st.Cond,
		assignRHS: asg.Rhs[0],
		assignOp:  token.ASSIGN,
	}, true, ""
}

// assignSite recognizes forms 2 and 4 at statement level (an assignment
// not wrapped in a recognized if).
func assignSite(wr *wordReads, u UpdateFn, loop ast.Stmt, st *ast.AssignStmt) (site, bool, string) {
	pass := wr.pass
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return site{}, false, ""
	}
	reads := wr.in(st.Rhs[0])
	if len(reads) == 0 {
		return site{}, false, ""
	}
	acc := accObject(pass, u, loop, st.Lhs[0])
	if acc == nil {
		// An edge read flowing into a loop-local (e.g. a candidate
		// variable) is not a gather; the local's consumers are.
		if st.Tok == token.DEFINE {
			return site{}, false, ""
		}
		return site{}, false, ""
	}
	form := formAssign
	op := st.Tok
	switch st.Tok {
	case token.ASSIGN:
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		form = formOpAssign
	default:
		return site{}, false, fmt.Sprintf("gather at %s uses unsupported assignment %s", pass.Fset.Position(st.Pos()), st.Tok)
	}
	return site{pos: st.Pos(), acc: acc, reads: reads, form: form, assignRHS: st.Rhs[0], assignOp: op}, true, ""
}

// opOfAssign maps an op= token to its binary operator.
func opOfAssign(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	}
	return token.ILLEGAL
}

// compileSite turns one recognized site into a mergeStep. Slot layout:
// 0 = accumulator, 1 = raw edge word (uint64), 2 = the if-init binding
// (form 1 only).
func compileSite(ev *evaluator, u UpdateFn, s site, frees *[]freeSym, freeIdx map[string]int) (mergeStep, error) {
	accKind, accBits, ok := kindOfType(s.acc.Type())
	if !ok {
		return mergeStep{}, fmt.Errorf("accumulator %s has non-basic type %s", s.acc.Name(), s.acc.Type())
	}
	newCtx := func(slots map[types.Object]int, subst map[ast.Expr]int) *compileCtx {
		return &compileCtx{
			ev:      ev,
			slots:   slots,
			subst:   subst,
			frees:   frees,
			freeIdx: freeIdx,
			scope:   u.Pos(),
			inlined: map[*ast.FuncDecl]bool{},
		}
	}
	subst := map[ast.Expr]int{}
	for _, r := range s.reads {
		subst[r] = 1
	}

	switch s.form {
	case formIfInit:
		liftFn, err := newCtx(map[types.Object]int{s.acc: 0}, subst).compile(s.ifInitRHS)
		if err != nil {
			return mergeStep{}, err
		}
		slots := map[types.Object]int{s.acc: 0}
		if s.ifInitObj != nil {
			slots[s.ifInitObj] = 2
		}
		condFn, err := newCtx(slots, nil).compile(s.cond)
		if err != nil {
			return mergeStep{}, err
		}
		rhsFn, err := newCtx(slots, nil).compile(s.assignRHS)
		if err != nil {
			return mergeStep{}, err
		}
		lift := func(w uint64, fr []val) (val, error) {
			return liftFn([]val{{}, vUint(w, 64)}, fr)
		}
		return mergeStep{
			accKind: accKind, accBits: accBits,
			lift: lift,
			step: func(a val, w uint64, fr []val) (val, error) {
				x, err := lift(w, fr)
				if err != nil {
					return val{}, err
				}
				args := []val{a, vUint(w, 64), x}
				c, err := condFn(args, fr)
				if err != nil {
					return val{}, err
				}
				if c.k != kindBool {
					return val{}, fmt.Errorf("non-boolean merge condition")
				}
				if !c.b {
					return a, nil
				}
				return rhsFn(args, fr)
			},
		}, nil

	case formOpAssign:
		rhsFn, err := newCtx(map[types.Object]int{s.acc: 0}, subst).compile(s.assignRHS)
		if err != nil {
			return mergeStep{}, err
		}
		op := opOfAssign(s.assignOp)
		readsAcc := usesObject(ev.pass, s.assignRHS, s.acc)
		var lift func(w uint64, fr []val) (val, error)
		if !readsAcc {
			lift = func(w uint64, fr []val) (val, error) {
				return rhsFn([]val{{}, vUint(w, 64)}, fr)
			}
		} else {
			lift = kindLift(accKind, accBits)
		}
		return mergeStep{
			accKind: accKind, accBits: accBits,
			lift: lift,
			step: func(a val, w uint64, fr []val) (val, error) {
				r, err := rhsFn([]val{a, vUint(w, 64)}, fr)
				if err != nil {
					return val{}, err
				}
				return applyBinary(op, a, r)
			},
		}, nil

	case formIfPlain, formAssign:
		slots := map[types.Object]int{s.acc: 0}
		var condFn evalFn
		var err error
		if s.form == formIfPlain {
			condFn, err = newCtx(slots, subst).compile(s.cond)
			if err != nil {
				return mergeStep{}, err
			}
		}
		rhsFn, err := newCtx(slots, subst).compile(s.assignRHS)
		if err != nil {
			return mergeStep{}, err
		}
		return mergeStep{
			accKind: accKind, accBits: accBits,
			lift: kindLift(accKind, accBits),
			step: func(a val, w uint64, fr []val) (val, error) {
				args := []val{a, vUint(w, 64)}
				if condFn != nil {
					c, err := condFn(args, fr)
					if err != nil {
						return val{}, err
					}
					if c.k != kindBool {
						return val{}, fmt.Errorf("non-boolean merge condition")
					}
					if !c.b {
						return a, nil
					}
				}
				return rhsFn(args, fr)
			},
		}, nil
	}
	return mergeStep{}, fmt.Errorf("unknown site form %d", s.form)
}

// kindLift is the canonical word→acc embedding used when the site has no
// explicit lift expression: identity for integer accumulators, a float64
// bit decode for float ones.
func kindLift(kind valKind, bits uint8) func(uint64, []val) (val, error) {
	switch kind {
	case kindUint:
		return func(w uint64, _ []val) (val, error) { return vUint(w, bits), nil }
	case kindInt:
		return func(w uint64, _ []val) (val, error) { return vInt(int64(w), bits), nil }
	case kindFloat:
		return func(w uint64, _ []val) (val, error) { return vFloat(math.Float64frombits(w)), nil }
	}
	return func(uint64, []val) (val, error) { return val{}, fmt.Errorf("unliftable accumulator kind") }
}

// encodeAcc inverts kindLift on the accumulator space.
func encodeAcc(a val) (uint64, bool) {
	switch a.k {
	case kindUint:
		return a.u, true
	case kindInt:
		return uint64(a.i), true
	case kindFloat:
		return math.Float64bits(a.f), true
	}
	return 0, false
}

// usesObject reports whether expr references obj.
func usesObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// lawCheck drives the bounded-exhaustive sweep: commutativity and
// idempotence over (acc × word × word), associativity over the acc-space
// binary operator when the word embedding round-trips, all under every
// free-symbol assignment. NaN tuples are skipped (no kernel's value
// contract admits NaN payloads); evaluation errors skip the tuple too —
// both reduce coverage, never produce findings.
func lawCheck(steps []mergeStep, frees []freeSym) MergeFacts {
	m0 := steps[0]
	facts := MergeFacts{
		Extracted:   true,
		Commutative: true,
		Associative: true,
		Idempotent:  true,
	}
	switch m0.accKind {
	case kindUint:
		facts.AccKind = "uint64"
	case kindInt:
		facts.AccKind = "int64"
	case kindFloat:
		facts.AccKind = "float64"
	}
	words := wordDomain()

	for _, fr := range freeAssignments(frees) {
		// Accumulator domain: the lifted word values (plus whatever the
		// lift maps the boundary words to under this assignment).
		var accs []val
		seen := map[val]bool{}
		for _, w := range words {
			a, err := m0.lift(w, fr)
			if err != nil || a.isNaN() || seen[a] {
				continue
			}
			seen[a] = true
			accs = append(accs, a)
		}

		// Pointwise agreement across sites: one merge, several loops.
		for _, s := range steps[1:] {
			for _, a := range accs {
				for _, w := range words {
					r0, e0 := m0.step(a, w, fr)
					r1, e1 := s.step(a, w, fr)
					if e0 != nil || e1 != nil || r0.isNaN() || r1.isNaN() {
						continue
					}
					if !r0.eq(r1) {
						return MergeFacts{
							Sites: len(steps),
							Note: fmt.Sprintf("gather sites disagree at acc=%s word=%#x: %s vs %s",
								a, w, r0, r1),
						}
					}
				}
			}
		}

		for _, a := range accs {
			for _, w1 := range words {
				r1, err := m0.step(a, w1, fr)
				if err != nil || r1.isNaN() {
					continue
				}
				// Idempotence: applying the same word twice is applying it
				// once.
				if facts.Idempotent {
					rr, err := m0.step(r1, w1, fr)
					if err == nil && !rr.isNaN() && !rr.eq(r1) {
						facts.Idempotent = false
						if facts.Counter == "" {
							facts.Counter = fmt.Sprintf("idempotence: m(m(%s, %#x), %#x) = %s ≠ %s", a, w1, w1, rr, r1)
						}
					}
				}
				// Commutativity: word application order is irrelevant.
				for _, w2 := range words {
					lhs, e1 := m0.step(r1, w2, fr)
					r2, e2 := m0.step(a, w2, fr)
					if e1 != nil || e2 != nil {
						continue
					}
					rhs, e3 := m0.step(r2, w1, fr)
					if e3 != nil || lhs.isNaN() || rhs.isNaN() {
						continue
					}
					if !lhs.eq(rhs) && facts.Commutative {
						facts.Commutative = false
						if facts.Counter == "" {
							facts.Counter = fmt.Sprintf("commutativity: m(m(%s, %#x), %#x) = %s but m(m(%s, %#x), %#x) = %s",
								a, w1, w2, lhs, a, w2, w1, rhs)
						}
					}
				}
			}
		}

		// Associativity over the induced acc-space binary operator
		// g(a, b) = m(a, encode(b)), valid only when lift(encode(b)) == b
		// on the whole domain (the embedding round-trips).
		roundtrips := true
		for _, a := range accs {
			w, ok := encodeAcc(a)
			if !ok {
				roundtrips = false
				break
			}
			b, err := m0.lift(w, fr)
			if err != nil || !b.eq(a) {
				roundtrips = false
				break
			}
		}
		if !roundtrips {
			facts.AssocChecked = false
			facts.Associative = false
			continue
		}
		facts.AssocChecked = true
		g := func(a, b val) (val, bool) {
			w, ok := encodeAcc(b)
			if !ok {
				return val{}, false
			}
			r, err := m0.step(a, w, fr)
			if err != nil || r.isNaN() {
				return val{}, false
			}
			return r, true
		}
		for _, x := range accs {
			for _, y := range accs {
				xy, ok := g(x, y)
				if !ok {
					continue
				}
				for _, z := range accs {
					lhs, ok1 := g(xy, z)
					yz, ok2 := g(y, z)
					if !ok1 || !ok2 {
						continue
					}
					rhs, ok3 := g(x, yz)
					if !ok3 {
						continue
					}
					if !lhs.eq(rhs) && facts.Associative {
						facts.Associative = false
						if facts.Counter == "" {
							facts.Counter = fmt.Sprintf("associativity: g(g(%s, %s), %s) = %s ≠ g(%s, g(%s, %s)) = %s",
								x, y, z, lhs, x, y, z, rhs)
						}
					}
				}
			}
		}
	}

	facts.SemilatticeVerified = facts.Commutative && facts.Idempotent &&
		facts.AssocChecked && facts.Associative
	return facts
}
