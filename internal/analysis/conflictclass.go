package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"ndgraph/internal/eligibility"
)

// ConflictClass derives each update function's *static* conflict profile —
// which sides of an edge it can read and write — and, when the algorithm's
// Properties() method is statically readable, feeds the worst-case profile
// to eligibility.AdviseStatic. The classification mirrors the paper's
// system model: edge (u→v) is touched by f(u) through Out* calls and by
// f(v) through In* calls, so the call set alone bounds the conflict class
// over all graphs and schedules (cf. the a-priori access-pattern
// classification of the non-blocking PageRank and delayed-async lines of
// work). An ineligible worst case is a diagnostic; an eligible one is
// silent.
var ConflictClass = &Analyzer{
	Name: "conflictclass",
	Doc: "classify update functions' edge accesses into static conflict " +
		"profiles (RO/RW/WW) and check them against the paper's theorems",
	Run: runConflictClass,
}

// ClassReport is one update function's static classification — the pass
// result is []ClassReport, the profile, properties and gates of an update
// certificate (see Certificates).
type ClassReport struct {
	// Name is the update function's display name; Recv the receiver type
	// name for methods ("" otherwise).
	Name string
	Recv string
	// Profile is the statically derived access profile.
	Profile eligibility.StaticProfile
	// Props holds the statically extracted Properties when the receiver
	// declares a Properties() method built from constants; nil otherwise.
	Props *eligibility.Properties
	// Verdict is eligibility.AdviseStatic(Props, Profile) when Props is
	// available.
	Verdict *eligibility.Verdict
}

func runConflictClass(pass *Pass) (any, error) {
	c := &classifier{
		pass:  pass,
		decls: indexFuncDecls(pass),
		memo:  map[*ast.FuncDecl]eligibility.StaticProfile{},
		busy:  map[*ast.FuncDecl]bool{},
	}
	var reports []ClassReport
	for _, u := range FindUpdateFuncs(pass) {
		r := ClassReport{Name: u.Name, Profile: c.profileOfBody(u.Body)}
		if u.Recv != nil {
			r.Recv = u.Recv.Obj().Name()
			if props, ok := extractProperties(pass, u.Recv); ok {
				r.Props = &props
				v := eligibility.AdviseStatic(props, r.Profile)
				r.Verdict = &v
			}
		}
		reports = append(reports, r)

		switch {
		case r.Verdict != nil && !r.Verdict.Eligible:
			pass.Reportf(u.Pos().Pos(),
				"%s is statically NOT ELIGIBLE for nondeterministic execution: profile %s with premises (sync=%v det-async=%v monotonic=%v convergence=%s) — %s",
				u.Name, r.Profile, r.Props.ConvergesSynchronously, r.Props.ConvergesDetAsync,
				r.Props.Monotonic, r.Props.Convergence, strings.Join(r.Verdict.Reasons[1:], "; "))
		case r.Verdict == nil && r.Profile.PotentialWW():
			pass.Reportf(u.Pos().Pos(),
				"%s has static conflict class %s (both endpoints write shared edge words) but no statically readable Properties(): the Theorem 2 premises (monotonicity, det-async convergence) cannot be checked — declare Properties with constant fields",
				u.Name, r.Profile.Class())
		}
	}
	return reports, nil
}

// classifier computes access profiles, following calls that pass a
// VertexView to another function in the same package (one static
// call-graph hop at a time, to a fixpoint, cycles broken by `busy`).
type classifier struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
	memo  map[*ast.FuncDecl]eligibility.StaticProfile
	busy  map[*ast.FuncDecl]bool
}

func (c *classifier) profileOfBody(body *ast.BlockStmt) eligibility.StaticProfile {
	var sp eligibility.StaticProfile
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := viewCall(c.pass, call); ok {
			switch name {
			case "InEdgeVal", "InEdgeVals":
				sp.ReadsIn = true
			case "OutEdgeVal", "OutEdgeVals":
				sp.ReadsOut = true
			case "SetInEdgeVal":
				sp.WritesIn = true
			case "SetOutEdgeVal", "SetOutEdgeVals":
				sp.WritesOut = true
			case "SetVertex":
				sp.WritesVertex = true
			}
			return true
		}
		// A call that hands the view to another function inherits that
		// function's accesses (same-package callees only — we have no
		// bodies for the rest).
		for _, arg := range call.Args {
			if t := c.pass.Info.TypeOf(arg); t != nil && IsVertexView(t) {
				if decl := c.calleeDecl(call); decl != nil {
					sp = mergeProfiles(sp, c.profileOfDecl(decl))
				}
				break
			}
		}
		return true
	})
	return sp
}

func (c *classifier) profileOfDecl(decl *ast.FuncDecl) eligibility.StaticProfile {
	if sp, ok := c.memo[decl]; ok {
		return sp
	}
	if c.busy[decl] || decl.Body == nil {
		return eligibility.StaticProfile{}
	}
	c.busy[decl] = true
	sp := c.profileOfBody(decl.Body)
	c.busy[decl] = false
	c.memo[decl] = sp
	return sp
}

func (c *classifier) calleeDecl(call *ast.CallExpr) *ast.FuncDecl {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = c.pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.pass.Info.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	return c.decls[obj]
}

// indexFuncDecls maps function objects to their declarations (non-test
// files only).
func indexFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	idx := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

func mergeProfiles(a, b eligibility.StaticProfile) eligibility.StaticProfile {
	return eligibility.StaticProfile{
		ReadsIn:      a.ReadsIn || b.ReadsIn,
		ReadsOut:     a.ReadsOut || b.ReadsOut,
		WritesIn:     a.WritesIn || b.WritesIn,
		WritesOut:    a.WritesOut || b.WritesOut,
		WritesVertex: a.WritesVertex || b.WritesVertex,
	}
}

// extractProperties reads the receiver type's Properties() method and
// rebuilds the eligibility.Properties it returns, provided the method
// returns a composite literal whose premise fields are compile-time
// constants (which all built-in algorithms satisfy; a Name built at
// runtime, like SSSP's, is simply left empty). The extraction is keyed on
// field *names*, so it works identically on the real
// eligibility.Properties and on fixture replicas.
func extractProperties(pass *Pass, recv *types.Named) (eligibility.Properties, bool) {
	decl := findMethodDecl(pass, recv, "Properties")
	if decl == nil || decl.Body == nil {
		return eligibility.Properties{}, false
	}
	var lit *ast.CompositeLit
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit != nil {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		expr := ret.Results[0]
		if un, ok := expr.(*ast.UnaryExpr); ok {
			expr = un.X
		}
		if cl, ok := expr.(*ast.CompositeLit); ok {
			lit = cl
		}
		return true
	})
	if lit == nil {
		return eligibility.Properties{}, false
	}
	var props eligibility.Properties
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		val := pass.Info.Types[kv.Value].Value
		switch key.Name {
		case "ConvergesSynchronously", "ConvergesDetAsync", "Monotonic":
			if val == nil || val.Kind() != constant.Bool {
				return eligibility.Properties{}, false
			}
			b := constant.BoolVal(val)
			switch key.Name {
			case "ConvergesSynchronously":
				props.ConvergesSynchronously = b
			case "ConvergesDetAsync":
				props.ConvergesDetAsync = b
			case "Monotonic":
				props.Monotonic = b
			}
		case "Convergence":
			if val == nil || val.Kind() != constant.Int {
				return eligibility.Properties{}, false
			}
			n, _ := constant.Int64Val(val)
			props.Convergence = eligibility.Condition(n)
		case "Name":
			if val != nil && val.Kind() == constant.String {
				props.Name = constant.StringVal(val)
			}
		}
	}
	return props, true
}

// findMethodDecl locates a method declaration by name on the given
// receiver base type (non-test files).
func findMethodDecl(pass *Pass, recv *types.Named, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if named := namedRecvType(pass, fd.Recv.List[0].Type); named != nil && named.Obj() == recv.Obj() {
				return fd
			}
		}
	}
	return nil
}
