package analysis

import (
	"go/ast"
	"go/types"
)

// Atomicity flags packed sub-word read-modify-writes of edge data: a
// Set{In,Out}EdgeVal whose new value is derived from the update's own
// prior read of the same edge word (e.g. preserving one packed 32-bit half
// while rewriting the other). The logical payload of such an encoding is
// wider than the 64-bit unit the store transfers atomically, so the
// Section III realizations (b) aligned transfer and (c) atomic primitives
// guarantee only that each individual load/store is untorn — the compound
// read-modify-write is NOT atomic and a concurrent endpoint update can be
// lost. Such encodings need realization (a), ModeLocked, held across the
// whole read-modify-write, or an explicit recovery argument in the spirit
// of Theorem 2 (kcore's republish-on-schedule is the in-tree example).
var Atomicity = &Analyzer{
	Name: "atomicity",
	Doc: "flag packed sub-word read-modify-writes of edge words, which " +
		"per-word atomicity (Section III (b)/(c)) cannot protect",
	Run: runAtomicity,
}

func runAtomicity(pass *Pass) (any, error) {
	for _, u := range FindUpdateFuncs(pass) {
		checkAtomicity(pass, u)
	}
	return nil, nil
}

// edgeRead records that a local variable holds the value of a specific
// edge word: direction ("In"/"Out") plus the identity of the index
// expression (the index variable's object, or a rendered constant).
type edgeRead struct {
	dir      string
	indexObj types.Object
	indexStr string
}

func checkAtomicity(pass *Pass, u UpdateFn) {
	reads := map[types.Object]edgeRead{}
	slices := bulkSlices(pass, u.Body)

	indexKey := func(idx ast.Expr) (types.Object, string) {
		if id, ok := idx.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				return obj, ""
			}
		}
		if tv, ok := pass.Info.Types[idx]; ok && tv.Value != nil {
			return nil, tv.Value.ExactString()
		}
		return nil, ""
	}
	sameWord := func(a, b edgeRead) bool {
		if a.dir != b.dir {
			return false
		}
		if a.indexObj != nil || b.indexObj != nil {
			return a.indexObj == b.indexObj
		}
		return a.indexStr != "" && a.indexStr == b.indexStr
	}
	// asEdgeRead matches the two spellings of "the word of edge k":
	// view.InEdgeVal(k), and ws[k] where ws is (a variable holding) a bulk
	// read view.InEdgeVals().
	asEdgeRead := func(e ast.Expr) (edgeRead, bool) {
		switch e := e.(type) {
		case *ast.CallExpr:
			if len(e.Args) != 1 {
				return edgeRead{}, false
			}
			name, ok := viewCall(pass, e)
			if !ok || (name != "InEdgeVal" && name != "OutEdgeVal") {
				return edgeRead{}, false
			}
			obj, str := indexKey(e.Args[0])
			return edgeRead{dir: name[:len(name)-len("EdgeVal")], indexObj: obj, indexStr: str}, true
		case *ast.IndexExpr:
			dir, ok := bulkDir(pass, slices, e.X)
			if !ok {
				return edgeRead{}, false
			}
			obj, str := indexKey(e.Index)
			return edgeRead{dir: dir, indexObj: obj, indexStr: str}, true
		}
		return edgeRead{}, false
	}
	track := func(lhs ast.Expr, r edgeRead) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if obj := identObject(pass, id); obj != nil {
				reads[obj] = r
			}
		}
	}

	ast.Inspect(u.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// Track w := view.InEdgeVal(k) and w := ws[k] (and plain
			// re-assignments).
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if r, ok := asEdgeRead(rhs); ok {
						track(s.Lhs[i], r)
					}
				}
			}
		case *ast.RangeStmt:
			// for k, w := range view.InEdgeVals(): w is the word of edge k.
			if dir, ok := bulkDir(pass, slices, s.X); ok && s.Value != nil {
				if key, ok := s.Key.(*ast.Ident); ok && key.Name != "_" {
					track(s.Value, edgeRead{dir: dir, indexObj: identObject(pass, key)})
				}
			}
		case *ast.CallExpr:
			name, ok := viewCall(pass, s)
			if !ok || (name != "SetInEdgeVal" && name != "SetOutEdgeVal") || len(s.Args) != 2 {
				return true
			}
			dir := name[len("Set") : len(name)-len("EdgeVal")]
			obj, str := indexKey(s.Args[0])
			target := edgeRead{dir: dir, indexObj: obj, indexStr: str}
			// Does the written value derive from a read of the same word?
			derived := false
			ast.Inspect(s.Args[1], func(v ast.Node) bool {
				if derived {
					return false
				}
				switch e := v.(type) {
				case *ast.Ident:
					if r, ok := reads[pass.Info.Uses[e]]; ok && sameWord(r, target) {
						derived = true
					}
				case ast.Expr:
					if r, ok := asEdgeRead(e); ok && sameWord(r, target) {
						derived = true
					}
				}
				return true
			})
			if derived {
				pass.Reportf(s.Pos(),
					"%s rewrites edge word %sEdgeVal(...) from its own prior read (packed sub-word payload): the logical payload is wider than the one 64-bit word the store transfers atomically, so Section III realizations (b)/(c) cannot make the read-modify-write atomic — hold ModeLocked across the compound update or justify recovery à la Theorem 2",
					u.Name, dir)
			}
		}
		return true
	})
}
