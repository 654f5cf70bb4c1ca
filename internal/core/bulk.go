package core

import "ndgraph/internal/edgedata"

// EdgeScratch is the pair of word buffers behind one view's InEdgeVals and
// OutEdgeVals. Every view holds one per worker; the buffers grow to the
// largest degree the worker has met and are reused from then on, so a
// steady-state update allocates nothing.
type EdgeScratch struct {
	in, out []uint64
}

// sized returns buf resized to n words, reallocating (with headroom, so
// growth is amortized) only when its capacity is short.
func sized(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n, 2*n)
	}
	return buf[:n]
}

// LoadIn is InEdgeVals for a run with nothing to record per access: one
// Gather of the in-edges' canonical indices.
func (s *EdgeScratch) LoadIn(st edgedata.Store, idx []uint32) []uint64 {
	s.in = sized(s.in, len(idx))
	st.Gather(s.in, idx)
	return s.in
}

// LoadOut is OutEdgeVals for such a run: one LoadRange of the n out-edges,
// which are contiguous from lo.
func (s *EdgeScratch) LoadOut(st edgedata.Store, lo uint32, n int) []uint64 {
	s.out = sized(s.out, n)
	st.LoadRange(s.out, lo)
	return s.out
}

// The per-edge fallback: the bulk accessors expressed through a view's own
// per-edge methods, one call per word. It is the whole implementation for
// views without a specialised bulk path (autonomous, shard, replay) and
// the instrumented path of those that have one (Ctx and package async's
// views under a census, delay clock, commit log, fault injector, …), which
// is what keeps every per-access side effect word-for-word identical
// between the bulk and the per-edge API.

// GatherIn serves v.InEdgeVals with InDegree InEdgeVal calls.
func (s *EdgeScratch) GatherIn(v VertexView) []uint64 {
	s.in = sized(s.in, v.InDegree())
	for k := range s.in {
		s.in[k] = v.InEdgeVal(k)
	}
	return s.in
}

// GatherOut serves v.OutEdgeVals with OutDegree OutEdgeVal calls.
func (s *EdgeScratch) GatherOut(v VertexView) []uint64 {
	s.out = sized(s.out, v.OutDegree())
	for k := range s.out {
		s.out[k] = v.OutEdgeVal(k)
	}
	return s.out
}

// ScatterOut serves v.SetOutEdgeVals with OutDegree SetOutEdgeVal calls.
func ScatterOut(v VertexView, w uint64) {
	for k, n := 0, v.OutDegree(); k < n; k++ {
		v.SetOutEdgeVal(k, w)
	}
}
