// Positive conflictclass fixtures: worst-case profiles not covered by
// either theorem.
package conflictclass

import "core"

// BadColoring is the coloring shape: write-write conflicts (both endpoints
// rewrite shared edge words) without monotonicity — Theorem 2's premise
// fails.
type BadColoring struct{}

func (*BadColoring) Properties() Properties {
	return Properties{Name: "badcoloring", ConvergesDetAsync: true, Monotonic: false, Convergence: Absolute}
}

func (*BadColoring) Update(ctx core.VertexView) { // want `statically NOT ELIGIBLE` `monotonic=false`
	c := ctx.Vertex() + 1
	ctx.SetVertex(c)
	for k := 0; k < ctx.InDegree(); k++ {
		ctx.SetInEdgeVal(k, ctx.InEdgeVal(k)>>32|c)
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, ctx.OutEdgeVal(k)<<32|c)
	}
}

// BadOscillator is the label-propagation shape: read-write conflicts only,
// but neither convergence premise holds, so Theorem 1 does not apply.
type BadOscillator struct{}

func (*BadOscillator) Properties() Properties {
	return Properties{Name: "badoscillator"}
}

func (*BadOscillator) Update(ctx core.VertexView) { // want `statically NOT ELIGIBLE` `no convergence premise`
	best := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		if v := ctx.InEdgeVal(k); v > best {
			best = v
		}
	}
	ctx.SetVertex(best)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, best)
	}
}

// Orphan writes both edge sides but declares no Properties, so the
// Theorem 2 premises cannot be checked at all.
type Orphan struct{}

func (*Orphan) Update(ctx core.VertexView) { // want `no statically readable Properties`
	v := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		ctx.SetInEdgeVal(k, v)
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, v)
	}
}

// BadBulkOscillator is BadOscillator through the bulk accessors: the calls
// must classify (reads in, writes out) or the ineligible profile would go
// unreported.
type BadBulkOscillator struct{}

func (*BadBulkOscillator) Properties() Properties {
	return Properties{Name: "badbulkoscillator"}
}

func (*BadBulkOscillator) Update(ctx core.VertexView) { // want `statically NOT ELIGIBLE` `no convergence premise`
	best := uint64(0)
	for _, v := range ctx.InEdgeVals() {
		if v > best {
			best = v
		}
	}
	ctx.SetVertex(best)
	ctx.SetOutEdgeVals(best)
}
