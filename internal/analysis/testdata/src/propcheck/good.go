// Positive propcheck fixtures: correctly declared merges are silent.
package propcheck

import "core"

// GoodMin declares Monotonic and gathers with min over both edge
// directions — two sites, one semilattice merge, laws hold.
type GoodMin struct{}

func (*GoodMin) Properties() Properties {
	return Properties{
		Name:                   "goodmin",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*GoodMin) Update(ctx core.VertexView) {
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
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, min)
	}
}

// GoodSum accumulates — NOT a semilattice merge, but also not declared
// Monotonic, so the refuted idempotence law is recorded in the pass
// result without a diagnostic (the PageRank/SpMV situation).
type GoodSum struct{}

func (*GoodSum) Properties() Properties {
	return Properties{
		Name:                   "goodsum",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*GoodSum) Update(ctx core.VertexView) {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
}

// GoodBulkMin is GoodMin gathering through the bulk accessors: one site
// ranges over the call, the other indexes a held slice, and both must
// extract to the same verified min merge.
type GoodBulkMin struct{}

func (*GoodBulkMin) Properties() Properties {
	return Properties{
		Name:                   "goodbulkmin",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*GoodBulkMin) Update(ctx core.VertexView) {
	min := ctx.Vertex()
	for _, w := range ctx.InEdgeVals() {
		if w < min {
			min = w
		}
	}
	outs := ctx.OutEdgeVals()
	for k := range outs {
		if outs[k] < min {
			min = outs[k]
		}
	}
	ctx.SetVertex(min)
	ctx.SetOutEdgeVals(min)
}
