package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UpdateFn is one update function found in a package: a function, method,
// or function literal whose only parameter is a core.VertexView. This is
// exactly the core.UpdateFunc contract — the paper's f(v) — and excludes
// e.g. a func(core.VertexView, *Scheduler) posting into a priority queue,
// which would run under a different (sequential, push-mode) execution
// model.
type UpdateFn struct {
	// Name is a display name: "(*Coloring).Update", "kernel", or
	// "func literal".
	Name string
	// Recv is the receiver's named type when the update is a method.
	Recv *types.Named
	// Decl is the declaration (nil for literals); Lit the literal (nil
	// for declarations).
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Body is the function body.
	Body *ast.BlockStmt
	// View is the view parameter's object; nil when the parameter is
	// anonymous or blank.
	View types.Object
}

// Pos returns the position to report function-level findings at.
func (u UpdateFn) Pos() ast.Node {
	if u.Decl != nil {
		return u.Decl
	}
	return u.Lit
}

// IsVertexView reports whether t is the core.VertexView interface: a named
// interface type called VertexView declared in a package named "core".
// Matching by package *name* rather than full import path keeps the passes
// usable on fixture corpora (and on vendored copies) while staying precise
// enough in practice — the repository has exactly one such type.
func IsVertexView(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "VertexView" || obj.Pkg() == nil || obj.Pkg().Name() != "core" {
		return false
	}
	_, isIface := n.Underlying().(*types.Interface)
	return isIface
}

// isTestFile reports whether the node's file is a _test.go file; the
// passes lint production code only (test helpers deliberately break the
// scope rule to observe the engine).
func isTestFile(pass *Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}

// FindUpdateFuncs discovers every update function in the pass's package,
// skipping test files.
func FindUpdateFuncs(pass *Pass) []UpdateFn {
	var out []UpdateFn
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if u, ok := asUpdateFn(pass, fn.Type, fn.Body); ok {
					u.Decl = fn
					u.Name = fn.Name.Name
					if fn.Recv != nil && len(fn.Recv.List) == 1 {
						if named := namedRecvType(pass, fn.Recv.List[0].Type); named != nil {
							u.Recv = named
							u.Name = "(*" + named.Obj().Name() + ")." + fn.Name.Name
						}
					}
					out = append(out, u)
				}
			case *ast.FuncLit:
				if u, ok := asUpdateFn(pass, fn.Type, fn.Body); ok {
					u.Lit = fn
					u.Name = "func literal"
					out = append(out, u)
				}
			}
			return true
		})
	}
	return out
}

// asUpdateFn checks the core.UpdateFunc shape — a single VertexView
// parameter and no results — and extracts the view parameter object.
func asUpdateFn(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) (UpdateFn, bool) {
	if body == nil || ft.Params == nil || len(ft.Params.List) != 1 {
		return UpdateFn{}, false
	}
	if ft.Results.NumFields() > 0 {
		return UpdateFn{}, false
	}
	field := ft.Params.List[0]
	if len(field.Names) > 1 {
		return UpdateFn{}, false
	}
	t := pass.Info.TypeOf(field.Type)
	if t == nil || !IsVertexView(t) {
		return UpdateFn{}, false
	}
	u := UpdateFn{Body: body}
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		u.View = pass.Info.Defs[field.Names[0]]
	}
	return u, true
}

// namedRecvType unwraps a method receiver type expression to its named type.
func namedRecvType(pass *Pass, expr ast.Expr) *types.Named {
	t := pass.Info.TypeOf(expr)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// viewCall matches a call expression of the form view.Method(...) where
// view's static type is core.VertexView, and returns the method name. The
// receiver need not be the update's own parameter: any VertexView-typed
// value counts (the scope rule concerns the interface surface, not a
// particular variable).
func viewCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := pass.Info.TypeOf(sel.X)
	if t == nil || !IsVertexView(t) {
		return "", false
	}
	return sel.Sel.Name, true
}

// bulkRead matches view.InEdgeVals() / view.OutEdgeVals() and returns the
// direction ("In" or "Out") of the edge words the call yields.
func bulkRead(pass *Pass, expr ast.Expr) (dir string, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false
	}
	switch name, _ := viewCall(pass, call); name {
	case "InEdgeVals":
		return "In", true
	case "OutEdgeVals":
		return "Out", true
	}
	return "", false
}

// bulkSlices maps every local variable of body that is assigned a bulk
// read (ws := view.InEdgeVals()) to that read's direction.
func bulkSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	out := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || len(s.Lhs) != len(s.Rhs) {
			return true
		}
		for i, rhs := range s.Rhs {
			dir, ok := bulkRead(pass, rhs)
			if !ok {
				continue
			}
			if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := identObject(pass, id); obj != nil {
					out[obj] = dir
				}
			}
		}
		return true
	})
	return out
}

// bulkDir resolves expr — a bulk read call or a variable holding one — to
// its direction.
func bulkDir(pass *Pass, slices map[types.Object]string, expr ast.Expr) (string, bool) {
	if dir, ok := bulkRead(pass, expr); ok {
		return dir, true
	}
	if id, ok := expr.(*ast.Ident); ok {
		dir, ok := slices[pass.Info.Uses[id]]
		return dir, ok
	}
	return "", false
}

// identObject returns the object an identifier defines or uses.
func identObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// declaredWithin reports whether obj's declaration lies inside the span of
// node — the passes' notion of "local to this update function". Receivers
// and parameters count as declared within their FuncDecl.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// rootIdent walks to the base identifier of an assignable expression:
// a[i].b.c → a, *p → p. It returns nil for rootless expressions (e.g.
// function-call results).
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
