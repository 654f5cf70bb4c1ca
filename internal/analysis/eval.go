package analysis

// eval.go is the semantic-verification evaluator behind propcheck and
// kernelcheck: it compiles a typed Go expression — an update function's
// merge, a kernel's Message/Better pair — into a tree of closures (the
// interpreted IR) that the passes then drive bounded-exhaustively over
// enumerated word values. Compilation either succeeds for the *whole*
// expression or fails; there is no partial interpretation, so every law a
// pass reports as checked was evaluated under real Go semantics (wrapping
// uint64 arithmetic, IEEE-754 float64, short-circuit booleans).
//
// The supported fragment is deliberately small — pure arithmetic,
// comparisons, boolean logic, conversions between basic types, a handful
// of math/edgedata intrinsics, and same-package pure function inlining.
// Anything outside it (slices, maps, method calls, mutation) is a
// compile error, which the passes surface as "unverified", never as a
// false diagnostic. Captured state an expression reads but the evaluator
// cannot resolve — receiver fields like s.Epsilon, indexed captured
// slices like weights[e] — becomes a *free symbol* enumerated over a
// small per-kind domain, so the checked laws are required to hold for
// every value the capture could take.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"hash/fnv"
	"math"
	"strings"
)

// valKind discriminates the evaluator's value universe.
type valKind uint8

const (
	kindInvalid valKind = iota
	kindUint            // unsigned integers of any width (bits field)
	kindInt             // signed integers of any width
	kindFloat           // float64
	kindBool
)

// val is one runtime value of the interpreted IR.
type val struct {
	k    valKind
	bits uint8 // integer width (8/16/32/64); 0 for float/bool
	u    uint64
	i    int64
	f    float64
	b    bool
}

func vUint(u uint64, bits uint8) val { return val{k: kindUint, bits: bits, u: u & maskOf(bits)} }
func vInt(i int64, bits uint8) val   { return val{k: kindInt, bits: bits, i: truncInt(i, bits)} }
func vFloat(f float64) val           { return val{k: kindFloat, f: f} }
func vBool(b bool) val               { return val{k: kindBool, b: b} }

func maskOf(bits uint8) uint64 {
	if bits == 0 || bits >= 64 {
		return ^uint64(0)
	}
	return (1 << bits) - 1
}

func truncInt(i int64, bits uint8) int64 {
	if bits == 0 || bits >= 64 {
		return i
	}
	shift := 64 - bits
	return i << shift >> shift
}

// eq reports value equality within one kind. Float compares with ==, so
// NaN never equals anything (the law drivers skip NaN tuples explicitly)
// and +0 equals -0 — both deliberate: they mirror what the engines'
// comparison code would observe.
func (a val) eq(b val) bool {
	if a.k != b.k {
		return false
	}
	switch a.k {
	case kindUint:
		return a.u == b.u
	case kindInt:
		return a.i == b.i
	case kindFloat:
		return a.f == b.f
	case kindBool:
		return a.b == b.b
	}
	return false
}

// isNaN reports a float NaN — the one value family the law drivers
// excuse, because no kernel's value contract admits NaN payloads (the
// enumeration domain still contains NaN *bit patterns* like MaxUint64,
// which matter for integer-kind merges).
func (a val) isNaN() bool { return a.k == kindFloat && math.IsNaN(a.f) }

// String renders a value for counter-example diagnostics: hex word plus
// a decoded form, so "0x7ff0000000000000 (float +Inf)" reads at a glance.
func (a val) String() string {
	switch a.k {
	case kindUint:
		return fmt.Sprintf("%#x (%d)", a.u, a.u)
	case kindInt:
		return fmt.Sprintf("%d", a.i)
	case kindFloat:
		return fmt.Sprintf("%#x (float %g)", math.Float64bits(a.f), a.f)
	case kindBool:
		return fmt.Sprintf("%t", a.b)
	}
	return "<invalid>"
}

// evalFn is one compiled expression: args are the bound parameters (in
// slot order), frees the current assignment to the free symbols.
type evalFn func(args, frees []val) (val, error)

// freeSym is one unresolved capture the compiled expression reads.
type freeSym struct {
	// key is the capture's source rendering ("s.Epsilon", "weights[e]") —
	// two syntactic occurrences of the same rendering share one symbol.
	key string
	// kind/bits type the enumeration domain.
	kind valKind
	bits uint8
}

// compiled pairs a closure with the free symbols it discovered.
type compiled struct {
	fn    evalFn
	frees []freeSym
}

// maxFreeSyms caps the capture count: each free symbol multiplies the
// enumeration space by its domain size, so past two the bounded-
// exhaustive sweep stops being cheap and the pass reports "unverified"
// instead.
const maxFreeSyms = 2

// freeDomain returns the enumeration values for one free symbol.
func freeDomain(s freeSym) []val {
	switch s.kind {
	case kindFloat:
		return []val{vFloat(0), vFloat(0.5), vFloat(1), vFloat(2.5)}
	case kindUint:
		return []val{vUint(0, s.bits), vUint(1, s.bits), vUint(7, s.bits), vUint(100, s.bits)}
	case kindInt:
		return []val{vInt(0, s.bits), vInt(1, s.bits), vInt(3, s.bits)}
	case kindBool:
		return []val{vBool(false), vBool(true)}
	}
	return nil
}

// freeAssignments enumerates the cartesian product of all free-symbol
// domains; a law must hold under every assignment.
func freeAssignments(frees []freeSym) [][]val {
	out := [][]val{nil}
	for _, s := range frees {
		dom := freeDomain(s)
		var next [][]val
		for _, prefix := range out {
			for _, v := range dom {
				row := make([]val, len(prefix)+1)
				copy(row, prefix)
				row[len(prefix)] = v
				next = append(next, row)
			}
		}
		out = next
	}
	return out
}

// wordDomain is the bounded-exhaustive enumeration universe: systematic
// small integers, power-of-two boundaries, MaxUint64, and the bit
// patterns of characteristic float64 values including ±Inf, ±0, a
// denormal, and extreme magnitudes. ~23 words keep a triple-nested law
// sweep around 12k evaluations.
func wordDomain() []uint64 {
	fb := math.Float64bits
	words := []uint64{
		0, 1, 2, 3, 7, 63, 64, 255,
		1 << 31, 1 << 32, 1 << 63,
		math.MaxUint64 - 1, math.MaxUint64,
		fb(0.5), fb(1), fb(1.5), fb(2.5), fb(-2.5),
		fb(1e-300), fb(1e300),
		fb(math.Inf(1)), fb(math.Inf(-1)),
	}
	seen := make(map[uint64]bool, len(words))
	out := words[:0]
	for _, w := range words {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// evaluator owns the per-package compilation state shared across one
// pass run.
type evaluator struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
}

func newEvaluator(pass *Pass) *evaluator {
	return &evaluator{pass: pass, decls: indexFuncDecls(pass)}
}

// compileCtx is the lexical context of one compilation: parameter slots,
// node-identity substitutions (used by merge extraction to stand a
// variable in for the edge-read call), and the shared free-symbol table.
type compileCtx struct {
	ev      *evaluator
	slots   map[types.Object]int
	subst   map[ast.Expr]int
	frees   *[]freeSym
	freeIdx map[string]int
	inlined map[*ast.FuncDecl]bool
	// scope, when set, bounds which plain identifiers may become free
	// symbols: an identifier declared *inside* scope (a local, a loop
	// variable) that is not slot-bound is a compile error — treating it
	// as an arbitrary capture would silently change the semantics the
	// laws are checked against. Identifiers declared outside scope
	// (receiver fields reached via selectors, captured slices) enumerate
	// as free symbols.
	scope ast.Node
}

// compileFunc compiles a function body consisting of a single return
// statement (after skipping doc-only statements), with params bound to
// slots 0..n-1. Used for kernel Message/Better literals and same-package
// helper inlining.
func (ev *evaluator) compileFunc(params []types.Object, body *ast.BlockStmt, scope ast.Node) (compiled, error) {
	var frees []freeSym
	ctx := &compileCtx{
		ev:      ev,
		slots:   map[types.Object]int{},
		frees:   &frees,
		freeIdx: map[string]int{},
		inlined: map[*ast.FuncDecl]bool{},
		scope:   scope,
	}
	for i, p := range params {
		if p != nil {
			ctx.slots[p] = i
		}
	}
	fn, err := ctx.compileBody(body)
	if err != nil {
		return compiled{}, err
	}
	return compiled{fn: fn, frees: frees}, nil
}

// compileExprWith compiles a standalone expression under explicit slots
// and substitutions — the merge-extraction entry point.
func (ev *evaluator) compileExprWith(slots map[types.Object]int, subst map[ast.Expr]int, expr ast.Expr) (compiled, error) {
	var frees []freeSym
	ctx := &compileCtx{
		ev:      ev,
		slots:   slots,
		subst:   subst,
		frees:   &frees,
		freeIdx: map[string]int{},
		inlined: map[*ast.FuncDecl]bool{},
	}
	fn, err := ctx.compile(expr)
	if err != nil {
		return compiled{}, err
	}
	return compiled{fn: fn, frees: frees}, nil
}

// compileBody accepts exactly one return statement with one result.
func (c *compileCtx) compileBody(body *ast.BlockStmt) (evalFn, error) {
	if body == nil || len(body.List) != 1 {
		return nil, fmt.Errorf("unsupported body: want a single return statement")
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, fmt.Errorf("unsupported body: want a single-result return")
	}
	return c.compile(ret.Results[0])
}

// kindOfType maps a Go type to the evaluator's value universe.
func kindOfType(t types.Type) (valKind, uint8, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return kindInvalid, 0, false
	}
	switch b.Kind() {
	case types.Uint8:
		return kindUint, 8, true
	case types.Uint16:
		return kindUint, 16, true
	case types.Uint32:
		return kindUint, 32, true
	case types.Uint64, types.Uint, types.Uintptr:
		return kindUint, 64, true
	case types.Int8:
		return kindInt, 8, true
	case types.Int16:
		return kindInt, 16, true
	case types.Int32:
		return kindInt, 32, true
	case types.Int64, types.Int, types.UntypedInt:
		return kindInt, 64, true
	case types.Float64, types.UntypedFloat:
		return kindFloat, 0, true
	case types.Bool, types.UntypedBool:
		return kindBool, 0, true
	}
	return kindInvalid, 0, false
}

// compile builds the closure for expr. Resolution errors are compile
// errors — the passes treat them as "unverified", never as findings.
func (c *compileCtx) compile(expr ast.Expr) (evalFn, error) {
	// Node-identity substitution first: merge extraction replaces the
	// edge-read call with a bound argument slot.
	if slot, ok := c.subst[expr]; ok {
		return argFn(slot), nil
	}
	// Compile-time constants next (covers literals, named consts,
	// constant-folded expressions like math.MaxUint64 or 1<<32).
	if tv, ok := c.ev.pass.Info.Types[expr]; ok && tv.Value != nil {
		return constFn(tv.Value, tv.Type)
	}

	switch e := expr.(type) {
	case *ast.ParenExpr:
		return c.compile(e.X)
	case *ast.Ident:
		return c.compileIdent(e)
	case *ast.BinaryExpr:
		return c.compileBinary(e)
	case *ast.UnaryExpr:
		return c.compileUnary(e)
	case *ast.CallExpr:
		return c.compileCall(e)
	case *ast.SelectorExpr, *ast.IndexExpr:
		return c.compileCapture(expr)
	}
	return nil, fmt.Errorf("unsupported expression %T", expr)
}

func argFn(slot int) evalFn {
	return func(args, _ []val) (val, error) {
		if slot >= len(args) {
			return val{}, fmt.Errorf("argument slot %d out of range", slot)
		}
		return args[slot], nil
	}
}

func (c *compileCtx) compileIdent(e *ast.Ident) (evalFn, error) {
	obj := c.ev.pass.Info.Uses[e]
	if obj == nil {
		obj = c.ev.pass.Info.Defs[e]
	}
	if obj != nil {
		if slot, ok := c.slots[obj]; ok {
			return argFn(slot), nil
		}
		if c.scope != nil && declaredWithin(obj, c.scope) {
			return nil, fmt.Errorf("local %s is neither bound nor enumerable", e.Name)
		}
	}
	// A non-local identifier of basic type is a capture.
	return c.compileCapture(e)
}

// compileCapture turns an unresolvable read (receiver field, captured
// variable, indexed captured slice) into a free symbol.
func (c *compileCtx) compileCapture(expr ast.Expr) (evalFn, error) {
	t := c.ev.pass.Info.TypeOf(expr)
	if t == nil {
		return nil, fmt.Errorf("no type for capture %s", types.ExprString(expr))
	}
	kind, bits, ok := kindOfType(t)
	if !ok {
		return nil, fmt.Errorf("capture %s has non-basic type %s", types.ExprString(expr), t)
	}
	key := types.ExprString(expr)
	idx, seen := c.freeIdx[key]
	if !seen {
		if len(*c.frees) >= maxFreeSyms {
			return nil, fmt.Errorf("too many free symbols (capture %s)", key)
		}
		idx = len(*c.frees)
		*c.frees = append(*c.frees, freeSym{key: key, kind: kind, bits: bits})
		c.freeIdx[key] = idx
	}
	return func(_, frees []val) (val, error) {
		if idx >= len(frees) {
			return val{}, fmt.Errorf("free symbol %q unbound", key)
		}
		return frees[idx], nil
	}, nil
}

// constFn folds a compile-time constant into a fixed value of the
// expression's type.
func constFn(cv constant.Value, t types.Type) (evalFn, error) {
	kind, bits, ok := kindOfType(t)
	if !ok {
		return nil, fmt.Errorf("constant of non-basic type %s", t)
	}
	var v val
	switch kind {
	case kindUint:
		u, ok := constant.Uint64Val(cv)
		if !ok {
			return nil, fmt.Errorf("constant %s does not fit uint64", cv)
		}
		v = vUint(u, bits)
	case kindInt:
		i, ok := constant.Int64Val(cv)
		if !ok {
			return nil, fmt.Errorf("constant %s does not fit int64", cv)
		}
		v = vInt(i, bits)
	case kindFloat:
		f, _ := constant.Float64Val(cv)
		v = vFloat(f)
	case kindBool:
		if cv.Kind() != constant.Bool {
			return nil, fmt.Errorf("non-bool constant %s for bool type", cv)
		}
		v = vBool(constant.BoolVal(cv))
	}
	return func(_, _ []val) (val, error) { return v, nil }, nil
}

func (c *compileCtx) compileBinary(e *ast.BinaryExpr) (evalFn, error) {
	x, err := c.compile(e.X)
	if err != nil {
		return nil, err
	}
	y, err := c.compile(e.Y)
	if err != nil {
		return nil, err
	}
	op := e.Op
	// Short-circuit booleans keep Go semantics (the right operand of &&
	// is not evaluated when the left is false).
	if op == token.LAND || op == token.LOR {
		return func(args, frees []val) (val, error) {
			a, err := x(args, frees)
			if err != nil {
				return val{}, err
			}
			if a.k != kindBool {
				return val{}, fmt.Errorf("boolean operator on %v", a.k)
			}
			if op == token.LAND && !a.b {
				return vBool(false), nil
			}
			if op == token.LOR && a.b {
				return vBool(true), nil
			}
			return y(args, frees)
		}, nil
	}
	return func(args, frees []val) (val, error) {
		a, err := x(args, frees)
		if err != nil {
			return val{}, err
		}
		b, err := y(args, frees)
		if err != nil {
			return val{}, err
		}
		return applyBinary(op, a, b)
	}, nil
}

func applyBinary(op token.Token, a, b val) (val, error) {
	// Shifts allow mixed integer kinds on the count operand.
	if op == token.SHL || op == token.SHR {
		return applyShift(op, a, b)
	}
	if a.k != b.k {
		return val{}, fmt.Errorf("operand kind mismatch %v vs %v", a.k, b.k)
	}
	switch a.k {
	case kindUint:
		return applyUint(op, a, b)
	case kindInt:
		return applyInt(op, a, b)
	case kindFloat:
		return applyFloat(op, a, b)
	case kindBool:
		switch op {
		case token.EQL:
			return vBool(a.b == b.b), nil
		case token.NEQ:
			return vBool(a.b != b.b), nil
		}
	}
	return val{}, fmt.Errorf("unsupported operator %s on %v", op, a.k)
}

func applyShift(op token.Token, a, b val) (val, error) {
	var count uint64
	switch b.k {
	case kindUint:
		count = b.u
	case kindInt:
		if b.i < 0 {
			return val{}, fmt.Errorf("negative shift count")
		}
		count = uint64(b.i)
	default:
		return val{}, fmt.Errorf("non-integer shift count")
	}
	if count > 64 {
		count = 64
	}
	switch a.k {
	case kindUint:
		if op == token.SHL {
			if count >= 64 {
				return vUint(0, a.bits), nil
			}
			return vUint(a.u<<count, a.bits), nil
		}
		if count >= 64 {
			return vUint(0, a.bits), nil
		}
		return vUint(a.u>>count, a.bits), nil
	case kindInt:
		if op == token.SHL {
			if count >= 64 {
				return vInt(0, a.bits), nil
			}
			return vInt(a.i<<count, a.bits), nil
		}
		if count >= 64 {
			count = 63
		}
		return vInt(a.i>>count, a.bits), nil
	}
	return val{}, fmt.Errorf("shift of %v", a.k)
}

func applyUint(op token.Token, a, b val) (val, error) {
	switch op {
	case token.ADD:
		return vUint(a.u+b.u, a.bits), nil
	case token.SUB:
		return vUint(a.u-b.u, a.bits), nil
	case token.MUL:
		return vUint(a.u*b.u, a.bits), nil
	case token.QUO:
		if b.u == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		return vUint(a.u/b.u, a.bits), nil
	case token.REM:
		if b.u == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		return vUint(a.u%b.u, a.bits), nil
	case token.AND:
		return vUint(a.u&b.u, a.bits), nil
	case token.OR:
		return vUint(a.u|b.u, a.bits), nil
	case token.XOR:
		return vUint(a.u^b.u, a.bits), nil
	case token.AND_NOT:
		return vUint(a.u&^b.u, a.bits), nil
	case token.LSS:
		return vBool(a.u < b.u), nil
	case token.LEQ:
		return vBool(a.u <= b.u), nil
	case token.GTR:
		return vBool(a.u > b.u), nil
	case token.GEQ:
		return vBool(a.u >= b.u), nil
	case token.EQL:
		return vBool(a.u == b.u), nil
	case token.NEQ:
		return vBool(a.u != b.u), nil
	}
	return val{}, fmt.Errorf("unsupported uint operator %s", op)
}

func applyInt(op token.Token, a, b val) (val, error) {
	switch op {
	case token.ADD:
		return vInt(a.i+b.i, a.bits), nil
	case token.SUB:
		return vInt(a.i-b.i, a.bits), nil
	case token.MUL:
		return vInt(a.i*b.i, a.bits), nil
	case token.QUO:
		if b.i == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		return vInt(a.i/b.i, a.bits), nil
	case token.REM:
		if b.i == 0 {
			return val{}, fmt.Errorf("division by zero")
		}
		return vInt(a.i%b.i, a.bits), nil
	case token.AND:
		return vInt(a.i&b.i, a.bits), nil
	case token.OR:
		return vInt(a.i|b.i, a.bits), nil
	case token.XOR:
		return vInt(a.i^b.i, a.bits), nil
	case token.AND_NOT:
		return vInt(a.i&^b.i, a.bits), nil
	case token.LSS:
		return vBool(a.i < b.i), nil
	case token.LEQ:
		return vBool(a.i <= b.i), nil
	case token.GTR:
		return vBool(a.i > b.i), nil
	case token.GEQ:
		return vBool(a.i >= b.i), nil
	case token.EQL:
		return vBool(a.i == b.i), nil
	case token.NEQ:
		return vBool(a.i != b.i), nil
	}
	return val{}, fmt.Errorf("unsupported int operator %s", op)
}

func applyFloat(op token.Token, a, b val) (val, error) {
	switch op {
	case token.ADD:
		return vFloat(a.f + b.f), nil
	case token.SUB:
		return vFloat(a.f - b.f), nil
	case token.MUL:
		return vFloat(a.f * b.f), nil
	case token.QUO:
		return vFloat(a.f / b.f), nil
	case token.LSS:
		return vBool(a.f < b.f), nil
	case token.LEQ:
		return vBool(a.f <= b.f), nil
	case token.GTR:
		return vBool(a.f > b.f), nil
	case token.GEQ:
		return vBool(a.f >= b.f), nil
	case token.EQL:
		return vBool(a.f == b.f), nil
	case token.NEQ:
		return vBool(a.f != b.f), nil
	}
	return val{}, fmt.Errorf("unsupported float operator %s", op)
}

func (c *compileCtx) compileUnary(e *ast.UnaryExpr) (evalFn, error) {
	x, err := c.compile(e.X)
	if err != nil {
		return nil, err
	}
	op := e.Op
	return func(args, frees []val) (val, error) {
		a, err := x(args, frees)
		if err != nil {
			return val{}, err
		}
		switch op {
		case token.SUB:
			switch a.k {
			case kindUint:
				return vUint(-a.u, a.bits), nil
			case kindInt:
				return vInt(-a.i, a.bits), nil
			case kindFloat:
				return vFloat(-a.f), nil
			}
		case token.NOT:
			if a.k == kindBool {
				return vBool(!a.b), nil
			}
		case token.XOR:
			switch a.k {
			case kindUint:
				return vUint(^a.u, a.bits), nil
			case kindInt:
				return vInt(^a.i, a.bits), nil
			}
		case token.ADD:
			return a, nil
		}
		return val{}, fmt.Errorf("unsupported unary %s on %v", op, a.k)
	}, nil
}

func (c *compileCtx) compileCall(call *ast.CallExpr) (evalFn, error) {
	// Type conversion: T(x) for basic T.
	if tv, ok := c.ev.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("conversion with %d args", len(call.Args))
		}
		kind, bits, ok := kindOfType(tv.Type)
		if !ok {
			return nil, fmt.Errorf("conversion to non-basic type %s", tv.Type)
		}
		x, err := c.compile(call.Args[0])
		if err != nil {
			return nil, err
		}
		return func(args, frees []val) (val, error) {
			a, err := x(args, frees)
			if err != nil {
				return val{}, err
			}
			return convert(a, kind, bits)
		}, nil
	}

	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.ev.pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.ev.pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, fmt.Errorf("unsupported call %s", types.ExprString(call.Fun))
	}

	// Compile the arguments once, shared by both dispatch paths.
	argFns := make([]evalFn, len(call.Args))
	for i, a := range call.Args {
		f, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = f
	}
	evalArgs := func(args, frees []val) ([]val, error) {
		out := make([]val, len(argFns))
		for i, f := range argFns {
			v, err := f(args, frees)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	// Intrinsics: a fixed set of pure stdlib-shaped functions matched by
	// package *name* so fixture replicas qualify exactly like the real
	// packages (the IsVertexView convention).
	if fn.Pkg() != nil && fn.Pkg() != c.ev.pass.Pkg {
		intr, ok := intrinsic(fn.Pkg().Name(), fn.Name())
		if !ok {
			return nil, fmt.Errorf("call to unknown function %s.%s", fn.Pkg().Name(), fn.Name())
		}
		return func(args, frees []val) (val, error) {
			in, err := evalArgs(args, frees)
			if err != nil {
				return val{}, err
			}
			return intr(in)
		}, nil
	}

	// Same-package pure helper: inline its single-return body with the
	// parameters bound to fresh slots. Recursion is a compile error.
	decl := c.ev.decls[fn]
	if decl == nil || decl.Body == nil {
		return nil, fmt.Errorf("no body for %s", fn.Name())
	}
	if decl.Recv != nil {
		return nil, fmt.Errorf("method call %s", fn.Name())
	}
	if c.inlined[decl] {
		return nil, fmt.Errorf("recursive call to %s", fn.Name())
	}
	c.inlined[decl] = true
	defer delete(c.inlined, decl)

	var params []types.Object
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, c.ev.pass.Info.Defs[name])
		}
	}
	if len(params) != len(argFns) {
		return nil, fmt.Errorf("%s: variadic or unnamed parameters unsupported", fn.Name())
	}
	inner := &compileCtx{
		ev:      c.ev,
		slots:   map[types.Object]int{},
		frees:   c.frees,
		freeIdx: c.freeIdx,
		inlined: c.inlined,
	}
	for i, p := range params {
		if p != nil {
			inner.slots[p] = i
		}
	}
	body, err := inner.compileBody(decl.Body)
	if err != nil {
		return nil, fmt.Errorf("inlining %s: %w", fn.Name(), err)
	}
	return func(args, frees []val) (val, error) {
		in, err := evalArgs(args, frees)
		if err != nil {
			return val{}, err
		}
		return body(in, frees)
	}, nil
}

func convert(a val, kind valKind, bits uint8) (val, error) {
	switch kind {
	case kindUint:
		switch a.k {
		case kindUint:
			return vUint(a.u, bits), nil
		case kindInt:
			return vUint(uint64(a.i), bits), nil
		case kindFloat:
			return vUint(uint64(a.f), bits), nil
		}
	case kindInt:
		switch a.k {
		case kindUint:
			return vInt(int64(a.u), bits), nil
		case kindInt:
			return vInt(a.i, bits), nil
		case kindFloat:
			return vInt(int64(a.f), bits), nil
		}
	case kindFloat:
		switch a.k {
		case kindUint:
			return vFloat(float64(a.u)), nil
		case kindInt:
			return vFloat(float64(a.i)), nil
		case kindFloat:
			return a, nil
		}
	}
	return val{}, fmt.Errorf("unsupported conversion from %v", a.k)
}

// intrinsic resolves the small external-function vocabulary the merge
// and kernel expressions actually use: bit-casting (edgedata, math) and
// elementary float math. Everything else is a compile error.
func intrinsic(pkg, name string) (func([]val) (val, error), bool) {
	need := func(in []val, n int) error {
		if len(in) != n {
			return fmt.Errorf("%s.%s: want %d args, got %d", pkg, name, n, len(in))
		}
		return nil
	}
	f1 := func(f func(float64) float64) func([]val) (val, error) {
		return func(in []val) (val, error) {
			if err := need(in, 1); err != nil {
				return val{}, err
			}
			if in[0].k != kindFloat {
				return val{}, fmt.Errorf("%s.%s: non-float argument", pkg, name)
			}
			return vFloat(f(in[0].f)), nil
		}
	}
	switch pkg {
	case "edgedata":
		switch name {
		case "ToFloat64":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				if in[0].k != kindUint {
					return val{}, fmt.Errorf("edgedata.ToFloat64: non-uint argument")
				}
				return vFloat(math.Float64frombits(in[0].u)), nil
			}, true
		case "FromFloat64":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				if in[0].k != kindFloat {
					return val{}, fmt.Errorf("edgedata.FromFloat64: non-float argument")
				}
				return vUint(math.Float64bits(in[0].f), 64), nil
			}, true
		}
	case "math":
		switch name {
		case "Abs":
			return f1(math.Abs), true
		case "Sqrt":
			return f1(math.Sqrt), true
		case "Float64frombits":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				if in[0].k != kindUint {
					return val{}, fmt.Errorf("math.Float64frombits: non-uint argument")
				}
				return vFloat(math.Float64frombits(in[0].u)), nil
			}, true
		case "Float64bits":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				if in[0].k != kindFloat {
					return val{}, fmt.Errorf("math.Float64bits: non-float argument")
				}
				return vUint(math.Float64bits(in[0].f), 64), nil
			}, true
		case "Inf":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				sign := 1
				if in[0].k == kindInt && in[0].i < 0 {
					sign = -1
				}
				return vFloat(math.Inf(sign)), nil
			}, true
		case "IsNaN":
			return func(in []val) (val, error) {
				if err := need(in, 1); err != nil {
					return val{}, err
				}
				return vBool(in[0].k == kindFloat && math.IsNaN(in[0].f)), nil
			}, true
		case "IsInf":
			return func(in []val) (val, error) {
				if err := need(in, 2); err != nil {
					return val{}, err
				}
				sign := 0
				if in[1].k == kindInt {
					sign = int(in[1].i)
				}
				return vBool(in[0].k == kindFloat && math.IsInf(in[0].f, sign)), nil
			}, true
		case "Max":
			return func(in []val) (val, error) {
				if err := need(in, 2); err != nil {
					return val{}, err
				}
				return vFloat(math.Max(in[0].f, in[1].f)), nil
			}, true
		case "Min":
			return func(in []val) (val, error) {
				if err := need(in, 2); err != nil {
					return val{}, err
				}
				return vFloat(math.Min(in[0].f, in[1].f)), nil
			}, true
		}
	}
	return nil, false
}

// srcHash renders the nodes with go/printer and returns the FNV-1a hash
// of the concatenation — the certificate's source identity. The printer
// normalizes whitespace, so reformatting does not invalidate a
// certificate, while any token-level change does.
func srcHash(fset *token.FileSet, nodes ...ast.Node) string {
	h := fnv.New64a()
	var buf strings.Builder
	for _, n := range nodes {
		if n == nil {
			continue
		}
		buf.Reset()
		// Errors are impossible for parsed ASTs; a failure would only
		// perturb the hash, which re-analysis detects anyway.
		_ = printer.Fprint(&buf, fset, n)
		_, _ = h.Write([]byte(buf.String()))
		_, _ = h.Write([]byte{0})
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
