// Negative propcheck fixtures: a mis-declared Monotonic is refuted with
// a concrete counter-example.
package propcheck

import "core"

// BadSum declares Monotonic but its merge is addition — commutative and
// associative, yet not idempotent: re-applying a word moves the
// accumulator again, so a write-write race does not self-correct and the
// Theorem 2 premise is false.
type BadSum struct{}

func (*BadSum) Properties() Properties {
	return Properties{
		Name:                   "badsum",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*BadSum) Update(ctx core.VertexView) { // want `declares Monotonic but its merge violates idempotence`
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
}

// BadDiverge declares Monotonic with in- and out-gathers that compute
// DIFFERENT merges (min vs max) — the sites disagree pointwise, the
// extraction is poisoned, and only the pass result records why. No
// diagnostic: silence is "not disproven", not "verified".
type BadDiverge struct{}

func (*BadDiverge) Properties() Properties {
	return Properties{
		Name:                   "baddiverge",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*BadDiverge) Update(ctx core.VertexView) {
	best := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if w := ctx.InEdgeVal(k); w < best {
			best = w
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if w := ctx.OutEdgeVal(k); w > best {
			best = w
		}
	}
	ctx.SetVertex(best)
}

// BadBulkSum is BadSum over a bulk gather: the range loop's merge must be
// extracted, or the false Monotonic claim would pass unrefuted.
type BadBulkSum struct{}

func (*BadBulkSum) Properties() Properties {
	return Properties{
		Name:                   "badbulksum",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*BadBulkSum) Update(ctx core.VertexView) { // want `declares Monotonic but its merge violates idempotence`
	sum := uint64(0)
	for _, w := range ctx.InEdgeVals() {
		sum += w
	}
	ctx.SetVertex(sum)
	ctx.SetOutEdgeVals(sum)
}
