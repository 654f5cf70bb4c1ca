// Negative scopecheck fixtures: in-scope updates and non-update functions
// must produce no diagnostics.
package scopecheck

import "core"

// cleanUpdate is a PageRank-shaped update: locals, view calls, and a
// local map are all within the pull-mode scope.
func cleanUpdate(ctx core.VertexView) {
	sum := uint64(0)
	for k := 0; k < ctx.InDegree(); k++ {
		sum += ctx.InEdgeVal(k)
	}
	seen := map[uint64]int{}
	seen[sum]++
	ctx.SetVertex(sum)
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, sum)
	}
	ctx.ScheduleSelf()
}

// readsConfig reads (but never writes) receiver fields — configuration
// reads are fine.
type configured struct {
	epsilon uint64
}

func (c *configured) Update(ctx core.VertexView) {
	if ctx.Vertex() > c.epsilon {
		ctx.SetVertex(c.epsilon)
	}
}

// notAnUpdate takes a second parameter, so it follows a different engine
// contract (cf. a priority scheduler's post handle) and is exempt from the pull-mode
// scope rule.
func notAnUpdate(ctx core.VertexView, shared []uint64) {
	shared[ctx.V()] = ctx.Vertex()
}

// gatherScratch is the core.Scope.GatherIn shape: a helper that takes a view
// and RETURNS a value is not a core.UpdateFunc (which has no results), so
// writing its own receiver is outside the scope rule.
type gatherScratch struct {
	buf []uint64
}

func (s *gatherScratch) gatherIn(ctx core.VertexView) []uint64 {
	s.buf = s.buf[:0]
	for k := 0; k < ctx.InDegree(); k++ {
		s.buf = append(s.buf, ctx.InEdgeVal(k))
	}
	return s.buf
}
