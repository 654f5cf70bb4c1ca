// Package core is the fixture replica of ndgraph/internal/core's view
// surface: the passes match the VertexView contract by interface name and
// package name, so this stand-in lets the golden corpus compile without
// importing the real module.
package core

// VertexView mirrors ndgraph/internal/core.VertexView.
type VertexView interface {
	V() uint32
	Vertex() uint64
	SetVertex(w uint64)
	InDegree() int
	OutDegree() int
	InNeighbor(k int) uint32
	OutNeighbor(k int) uint32
	InEdgeID(k int) uint32
	OutEdgeID(k int) uint32
	InEdgeVal(k int) uint64
	OutEdgeVal(k int) uint64
	SetInEdgeVal(k int, w uint64)
	SetOutEdgeVal(k int, w uint64)
	InEdgeVals() []uint64
	OutEdgeVals() []uint64
	SetOutEdgeVals(w uint64)
	ScheduleSelf()
	Yield()
}
