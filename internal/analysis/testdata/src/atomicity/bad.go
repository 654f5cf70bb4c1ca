// Positive atomicity fixtures: packed sub-word read-modify-writes of edge
// words, which per-word atomicity cannot protect.
package atomicity

import "core"

// PackedHalves is the kcore/coloring idiom: each edge word packs both
// endpoints' values, so updating one half preserves the other via a
// read-modify-write.
func PackedHalves(ctx core.VertexView) {
	cur := uint32(ctx.Vertex())
	for k := 0; k < ctx.InDegree(); k++ {
		w := ctx.InEdgeVal(k)
		ctx.SetInEdgeVal(k, uint64(uint32(w))|uint64(cur)<<32) // want `read-modify-write`
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		w := ctx.OutEdgeVal(k)
		ctx.SetOutEdgeVal(k, uint64(cur)|w&^uint64(0xffffffff)) // want `read-modify-write`
	}
}

// InlineRMW derives the new word from a read nested directly in the write.
func InlineRMW(ctx core.VertexView) {
	for k := 0; k < ctx.OutDegree(); k++ {
		ctx.SetOutEdgeVal(k, ctx.OutEdgeVal(k)|1) // want `read-modify-write`
	}
}

// BulkRMW is PackedHalves with the words taken from bulk reads: an element
// of the slice, a local copied from one, and the value variable of a range
// over one all still name edge k's own word.
func BulkRMW(ctx core.VertexView) {
	cur := uint32(ctx.Vertex())
	ins := ctx.InEdgeVals()
	for k := range ins {
		ctx.SetInEdgeVal(k, uint64(uint32(ins[k]))|uint64(cur)<<32) // want `read-modify-write`
	}
	for k := range ins {
		w := ins[k]
		ctx.SetInEdgeVal(k, w|1) // want `read-modify-write`
	}
	for k, w := range ctx.OutEdgeVals() {
		ctx.SetOutEdgeVal(k, uint64(cur)|w&^uint64(0xffffffff)) // want `read-modify-write`
	}
}
