package core

// VertexView is the update function's window onto its vertex: the
// pull-mode scope of the paper's Algorithm 1 (the vertex's own data plus
// its incident edges), together with the task-generation side effects of
// edge writes. The barrier-based engine (Ctx) and every other executor's
// view (packages async, autonomous, shard; the trace replayer) implement
// it, so one algorithm implementation runs under every execution model.
// The topology methods — V through OutEdgeID — come from the Scope each of
// them embeds.
type VertexView interface {
	// V returns the vertex this update runs on.
	V() uint32
	// Vertex returns the vertex's data word D_v.
	Vertex() uint64
	// SetVertex stores the vertex's data word.
	SetVertex(w uint64)
	// InDegree returns the number of in-edges.
	InDegree() int
	// OutDegree returns the number of out-edges.
	OutDegree() int
	// InNeighbor returns the source of the k-th in-edge.
	InNeighbor(k int) uint32
	// OutNeighbor returns the destination of the k-th out-edge.
	OutNeighbor(k int) uint32
	// InEdgeID returns the canonical edge index of the k-th in-edge.
	InEdgeID(k int) uint32
	// OutEdgeID returns the canonical edge index of the k-th out-edge.
	OutEdgeID(k int) uint32
	// InEdgeVal reads the k-th in-edge's data word.
	InEdgeVal(k int) uint64
	// OutEdgeVal reads the k-th out-edge's data word.
	OutEdgeVal(k int) uint64
	// SetInEdgeVal writes the k-th in-edge's data word and schedules its
	// source (the task-generation rule).
	SetInEdgeVal(k int, w uint64)
	// SetOutEdgeVal writes the k-th out-edge's data word and schedules its
	// destination.
	SetOutEdgeVal(k int, w uint64)
	// InEdgeVals reads every in-edge's data word: the result is
	// index-parallel to InNeighbor(k) and InEdgeID(k), in in-edge order.
	// Each word is read individually with the store's atomicity, exactly
	// as InDegree() InEdgeVal calls would — it is not a snapshot. The
	// slice is the worker's scratch: valid until the update returns (or
	// the next InEdgeVals call), never to be retained or shared.
	InEdgeVals() []uint64
	// OutEdgeVals is InEdgeVals for the out-edges (index-parallel to
	// OutNeighbor(k)). It uses a second buffer, so an update may hold the
	// in- and out-edge slices at once.
	OutEdgeVals() []uint64
	// SetOutEdgeVals writes w to every out-edge's data word and schedules
	// every destination: OutDegree() SetOutEdgeVal(k, w) calls, except
	// that all stores may precede all schedules.
	SetOutEdgeVals(w uint64)
	// ScheduleSelf re-posts the vertex itself.
	ScheduleSelf()
	// Yield cooperatively yields between gather and scatter when the
	// race amplifier is enabled.
	Yield()
}

var _ VertexView = (*Ctx)(nil)
