// Positive admitcheck fixtures: a law-clean residual metric, or none at
// all, is silent.
package admitcheck

import (
	"core"
	"math"
)

// GoodEps is the PageRank shape: read-write conflicts only, synchronous
// convergence, approximate contract — Theorem 1 — and it supplies the
// residual metric the telemetry gauge reads.
type GoodEps struct{}

func (*GoodEps) Properties() Properties {
	return Properties{
		Name:                   "goodeps",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*GoodEps) Update(ctx core.VertexView) {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
}

// ResidualDelta is the absolute value movement per commit: zero exactly
// on unchanged values, non-negative everywhere.
func (*GoodEps) ResidualDelta(old, new uint64) float64 {
	return math.Abs(math.Float64frombits(new) - math.Float64frombits(old))
}

// GoodMono is the WCC shape: write-write conflicts, monotone,
// det-async convergent — Theorem 2, no residual metric.
type GoodMono struct{}

func (*GoodMono) Properties() Properties {
	return Properties{
		Name:                   "goodmono",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              true,
		Convergence:            Absolute,
	}
}

func (*GoodMono) Update(ctx core.VertexView) {
	min := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if w := ctx.InEdgeVal(k); w < min {
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

// GoodNoRD is the GoodEps shape without a ResidualDelta: the metric is
// optional telemetry input, so declaring none is silent.
type GoodNoRD struct{}

func (*GoodNoRD) Properties() Properties {
	return Properties{
		Name:                   "goodnord",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*GoodNoRD) Update(ctx core.VertexView) {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
}
