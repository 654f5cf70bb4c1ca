// Negative conflictclass fixtures: eligible worst cases are silent.
package conflictclass

import "core"

// GoodWCC has the same WW profile as BadColoring but is monotone and
// converges det-async — Theorem 2 covers it.
type GoodWCC struct{}

func (*GoodWCC) Properties() Properties {
	return Properties{
		Name:                   "goodwcc",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*GoodWCC) Update(ctx core.VertexView) {
	min := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if w := ctx.InEdgeVal(k); w < min {
			min = w
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if w := ctx.OutEdgeVal(k); w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	for k := 0; k < ctx.InDegree(); k++ {
		ctx.SetInEdgeVal(k, min)
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, min)
	}
}

// GoodPR is the PageRank shape — read-write conflicts only, synchronous
// convergence — split across helpers to exercise call-graph propagation:
// the profile must be the union of gather's reads and scatter's writes.
type GoodPR struct{}

func (*GoodPR) Properties() Properties {
	return Properties{
		Name:                   "goodpr",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*GoodPR) Update(ctx core.VertexView) {
	sum := gather(ctx)
	ctx.SetVertex(sum)
	scatter(ctx, sum)
}

func gather(ctx core.VertexView) uint64 {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	return sum
}

func scatter(ctx core.VertexView, w uint64) {
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, w)
	}
}

// GoodBulkPR is GoodPR written against the bulk accessors: InEdgeVals is a
// read of the in side and SetOutEdgeVals a write of the out side, so the
// profile — and the Theorem 1 verdict — must be the per-edge form's.
type GoodBulkPR struct{}

func (*GoodBulkPR) Properties() Properties {
	return Properties{
		Name:                   "goodbulkpr",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*GoodBulkPR) Update(ctx core.VertexView) {
	sum := uint64(0)
	for _, w := range ctx.InEdgeVals() {
		sum += w
	}
	ctx.SetVertex(sum)
	ctx.SetOutEdgeVals(sum)
}

// GoodBulkWCC is GoodWCC with both gathers and the out-scatter in bulk
// form: all four edge-access sides must still be seen (class WW).
type GoodBulkWCC struct{}

func (*GoodBulkWCC) Properties() Properties {
	return Properties{
		Name:                   "goodbulkwcc",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*GoodBulkWCC) Update(ctx core.VertexView) {
	min := ctx.Vertex()
	for _, w := range ctx.InEdgeVals() {
		if w < min {
			min = w
		}
	}
	for _, w := range ctx.OutEdgeVals() {
		if w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	for k := 0; k < ctx.InDegree(); k++ {
		ctx.SetInEdgeVal(k, min)
	}
	ctx.SetOutEdgeVals(min)
}
