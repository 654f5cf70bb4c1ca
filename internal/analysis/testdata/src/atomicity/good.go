// Negative atomicity fixtures: full-word overwrites (WCC-style) and
// cross-word data flow are fine under per-word atomicity.
package atomicity

import "core"

// fullOverwrite is the WCC shape: the written value is a full-word
// replacement computed from the gather phase, not a partial rewrite of the
// word being stored — reading the same word in the *guard* is harmless.
func fullOverwrite(ctx core.VertexView) {
	min := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if w := ctx.InEdgeVal(k); w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	for k := 0; k < ctx.InDegree(); k++ {
		if ctx.InEdgeVal(k) > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
}

// crossWord writes word k from a read of a *different* word — a data
// dependence, not a read-modify-write of the same shared location.
func crossWord(ctx core.VertexView) {
	for k := 1; k < ctx.OutDegree(); k++ {
		prev := ctx.OutEdgeVal(k - 1)
		ctx.SetOutEdgeVal(k, prev+1)
	}
}

// bulkOverwrite is the WCC shape over bulk reads: the gathered word only
// guards the write, and the stored value is a full-word replacement.
func bulkOverwrite(ctx core.VertexView) {
	min := ctx.Vertex()
	for _, w := range ctx.InEdgeVals() {
		if w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	for k, w := range ctx.InEdgeVals() {
		if w > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
}

// bulkCrossWord writes word k from a different word of the slice, and an
// out-edge from an in-edge word of the same index — neither is a
// read-modify-write of the stored location.
func bulkCrossWord(ctx core.VertexView) {
	outs := ctx.OutEdgeVals()
	for k := 1; k < len(outs); k++ {
		ctx.SetOutEdgeVal(k, outs[k-1]+1)
	}
	for k, w := range ctx.InEdgeVals() {
		if k < ctx.OutDegree() {
			ctx.SetOutEdgeVal(k, w)
		}
	}
}
