package core

import (
	"ndgraph/internal/edgedata"
	"ndgraph/internal/graph"
)

// Scope is the topology half of a vertex view: the vertex an update is
// bound to, its in- and out-neighbours, the canonical indices of its
// incident edges, and the two word buffers behind InEdgeVals and
// OutEdgeVals. Every VertexView in the repository embeds one per worker and
// adds only what differs between executors — where vertex and edge words
// live and what a write schedules. The buffers grow to the largest degree
// the worker has met and are reused from then on, so a steady-state update
// allocates nothing.
type Scope struct {
	v      uint32
	inSrc  []uint32 // sources of in-edges
	inIdx  []uint32 // canonical indices of in-edges
	outDst []uint32 // destinations of out-edges
	outLo  uint32   // canonical index of the first out-edge

	in, out []uint64
}

// Bind points the scope at vertex v of g.
func (s *Scope) Bind(g *graph.Graph, v uint32) {
	lo, _ := g.OutEdgeIndex(v)
	s.BindEdges(v, g.InNeighbors(v), g.InEdgeIndices(v), g.OutNeighbors(v), lo)
}

// BindEdges points the scope at vertex v given its adjacency directly, for
// views whose edges do not come from a graph.Graph (package shard's
// windows). A view whose out-edge ids are not contiguous from outLo
// overrides OutEdgeID and must stay off LoadOut.
func (s *Scope) BindEdges(v uint32, inSrc, inIdx, outDst []uint32, outLo uint32) {
	s.v, s.inSrc, s.inIdx, s.outDst, s.outLo = v, inSrc, inIdx, outDst, outLo
}

// V returns the vertex this update is running on.
func (s *Scope) V() uint32 { return s.v }

// InDegree returns the number of in-edges of the vertex.
func (s *Scope) InDegree() int { return len(s.inSrc) }

// OutDegree returns the number of out-edges of the vertex.
func (s *Scope) OutDegree() int { return len(s.outDst) }

// InNeighbor returns the source of the k-th in-edge.
func (s *Scope) InNeighbor(k int) uint32 { return s.inSrc[k] }

// OutNeighbor returns the destination of the k-th out-edge.
func (s *Scope) OutNeighbor(k int) uint32 { return s.outDst[k] }

// InEdgeID returns the canonical edge index of the k-th in-edge, usable
// against immutable side arrays (e.g. SSSP weights).
func (s *Scope) InEdgeID(k int) uint32 { return s.inIdx[k] }

// OutEdgeID returns the canonical edge index of the k-th out-edge.
func (s *Scope) OutEdgeID(k int) uint32 { return s.outLo + uint32(k) }

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
func (s *Scope) LoadIn(st edgedata.Store) []uint64 {
	s.in = sized(s.in, len(s.inIdx))
	st.Gather(s.in, s.inIdx)
	return s.in
}

// LoadOut is OutEdgeVals for such a run: one LoadRange of the out-edges,
// which are contiguous from the first.
func (s *Scope) LoadOut(st edgedata.Store) []uint64 {
	s.out = sized(s.out, len(s.outDst))
	st.LoadRange(s.out, s.outLo)
	return s.out
}

// The per-edge fallback: the bulk accessors expressed through a view's own
// per-edge methods, one call per word. It is the whole implementation for
// views without a specialised bulk path (autonomous, shard, replay) and
// the instrumented path of Ctx (under a census, delay clock, commit log,
// fault injector, …), which is what keeps every per-access side effect
// word-for-word identical between the bulk and the per-edge API.

// GatherIn serves v.InEdgeVals with InDegree InEdgeVal calls.
func (s *Scope) GatherIn(v VertexView) []uint64 {
	s.in = sized(s.in, v.InDegree())
	for k := range s.in {
		s.in[k] = v.InEdgeVal(k)
	}
	return s.in
}

// GatherOut serves v.OutEdgeVals with OutDegree OutEdgeVal calls.
func (s *Scope) GatherOut(v VertexView) []uint64 {
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
