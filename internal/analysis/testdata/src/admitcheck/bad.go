// Negative admitcheck fixture: a residual metric that violates the
// estimator's laws.
package admitcheck

import (
	"core"
	"math"
)

// BadRD supplies a SIGNED residual: negative on decreasing moves, which
// would drag the residual gauge toward zero while values still churn.
type BadRD struct{}

func (*BadRD) Properties() Properties {
	return Properties{
		Name:                   "badrd",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Convergence:            Approximate,
	}
}

func (*BadRD) Update(ctx core.VertexView) {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
}

func (*BadRD) ResidualDelta(old, new uint64) float64 { // want `violates the residual metric laws`
	return math.Float64frombits(new) - math.Float64frombits(old)
}
