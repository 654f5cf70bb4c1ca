package netdist

import (
	"fmt"
	"math"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

// GraphSpec describes a graph generatively so it can cross the wire as a
// few integers instead of an edge dump: every worker rebuilds the
// identical graph locally from (kind, size, seed). The "edges" kind
// carries an explicit edge list for tests with hand-built topologies.
type GraphSpec struct {
	Kind  string      `json:"kind"` // "rmat", "ring", "chain", or "edges"
	N     int         `json:"n"`
	M     int         `json:"m,omitempty"`
	Seed  uint64      `json:"seed,omitempty"`
	Edges [][2]uint32 `json:"edges,omitempty"` // kind "edges" only
}

// Build materializes the spec. Deterministic: the same spec yields the
// same graph in every process.
func (s GraphSpec) Build() (*graph.Graph, error) {
	switch s.Kind {
	case "rmat":
		return gen.RMAT(s.N, s.M, gen.DefaultRMAT, s.Seed)
	case "ring":
		return gen.Ring(s.N)
	case "chain":
		return gen.Chain(s.N)
	case "edges":
		es := make([]graph.Edge, len(s.Edges))
		for i, e := range s.Edges {
			es[i] = graph.Edge{Src: e[0], Dst: e[1]}
		}
		return graph.Build(es, graph.Options{NumVertices: s.N})
	}
	return nil, fmt.Errorf("netdist: unknown graph kind %q", s.Kind)
}

// AlgoSpec names the algorithm and its parameters. WeightSeed feeds the
// same weight generator the shared-memory engine uses
// (algorithms.NewSSSP), so distributed SSSP distances are byte-identical
// to the core engine's.
type AlgoSpec struct {
	Name       string  `json:"name"` // "wcc", "bfs", "sssp", or "pagerank"
	Source     uint32  `json:"source,omitempty"`
	WeightSeed uint64  `json:"weight_seed,omitempty"`
	Eps        float64 `json:"eps,omitempty"` // pagerank residual threshold
}

// emitFn receives an outgoing update from a kernel: the canonical edge it
// travels along, the destination vertex, and the value. The worker routes
// it — locally for intra-partition edges, over TCP otherwise.
type emitFn func(e, dst uint32, val uint64)

// kernel is the partition-local computation: pure state machine over the
// owned vertex range, no knowledge of queues or sockets. All methods are
// called from the worker's single compute goroutine.
type kernel interface {
	// reset cold-starts the owned state and returns the initially
	// scheduled owned vertices.
	reset() []uint32
	// deliver merges an incoming value along owned in-edge e. It returns
	// the destination vertex, whether the value was adopted (improved
	// state), and whether the vertex needs (re)scheduling.
	deliver(e uint32, val uint64) (v uint32, adopted, schedule bool)
	// process runs the update function of owned vertex v, emitting
	// outgoing updates along its out-edges.
	process(v uint32, emit emitFn)
	// boundary emits the current value along every owned out-edge whose
	// destination satisfies pred — the Theorem-2 ripple-repair resend.
	boundary(pred func(dst uint32) bool, emit emitFn)
	// values returns the owned result slice (index v - lo). For PageRank
	// the values are Float64bits of rank plus unpushed residual.
	values() []uint64
	// encodeState/decodeState round-trip everything a checkpoint must
	// capture (values plus any per-edge state) as little-endian words.
	encodeState() []uint64
	decodeState(words []uint64) error
}

// testKernel supplies the kernel for a name newKernel does not know. It
// knows none; this package's tests replace it to run a hooked kernel through
// real workers.
var testKernel = func(string) (algorithms.Kernel, bool) { return algorithms.Kernel{}, false }

// newKernel builds the kernel for spec over partition id of t. The graph
// g must be the base directed graph of the job. WCC, BFS and SSSP run the
// certified algorithms.Kernel of the same name, on the symmetrized graph
// when the kernel is Undirected (min-label propagation needs both
// directions).
func newKernel(spec AlgoSpec, g *graph.Graph, t Table, id int) (kernel, error) {
	lo, hi := t.Range(id)
	var kern algorithms.Kernel
	switch spec.Name {
	case "wcc":
		kern = algorithms.WCCKernel()
	case "bfs", "sssp":
		if int(spec.Source) >= g.N() {
			return nil, fmt.Errorf("netdist: %s source %d out of range (|V| = %d)", spec.Name, spec.Source, g.N())
		}
		if spec.Name == "bfs" {
			kern = algorithms.BFSKernel(spec.Source)
		} else {
			kern = algorithms.SSSPKernel(spec.Source, algorithms.NewSSSP(g, spec.Source, spec.WeightSeed).Weights)
		}
	case "pagerank":
		eps := spec.Eps
		if eps <= 0 {
			eps = 1e-9
		}
		k := &pagerankKernel{g: g, lo: lo, hi: hi, eps: eps, damping: 0.85}
		k.init()
		return k, nil
	default:
		var ok bool
		if kern, ok = testKernel(spec.Name); !ok {
			return nil, fmt.Errorf("netdist: unknown algorithm %q", spec.Name)
		}
	}
	if kern.Undirected {
		g = g.Undirected()
	}
	return &monotoneKernel{kern: kern, g: g, lo: lo, hi: hi}, nil
}

// --- Monotone kernels: WCC, BFS, SSSP ---

// monotoneKernel runs an algorithms.Kernel, the Theorem-2 family: values
// only improve under Better's strict order, so the merge is idempotent
// and commutative — duplicated, reordered, and replayed deliveries are
// all absorbed for free, which is what makes at-least-once transport and
// crash repair sound.
type monotoneKernel struct {
	kern   algorithms.Kernel
	g      *graph.Graph
	lo, hi uint32
	vals   []uint64 // owned, index v-lo

	// init and seed hold each owned vertex's Init value and seed flag. A
	// vertex that still holds its Init value and is not a seed has
	// nothing to offer (an unreached BFS/SSSP vertex), so it sends
	// nothing.
	init []uint64
	seed []bool
}

// idle reports whether owned vertex v has nothing to offer yet.
func (k *monotoneKernel) idle(v uint32) bool {
	i := v - k.lo
	return !k.seed[i] && k.vals[i] == k.init[i]
}

func (k *monotoneKernel) reset() []uint32 {
	all, seeds := k.kern.Init(k.g)
	k.init = append([]uint64(nil), all[k.lo:k.hi]...)
	k.vals = append([]uint64(nil), k.init...)
	k.seed = make([]bool, k.hi-k.lo)
	var owned []uint32
	if seeds == nil { // every vertex starts scheduled
		for v := k.lo; v < k.hi; v++ {
			owned = append(owned, v)
		}
	}
	for _, v := range seeds {
		if u := uint32(v); u >= k.lo && u < k.hi {
			owned = append(owned, u)
		}
	}
	for _, v := range owned {
		k.seed[v-k.lo] = true
	}
	return owned
}

func (k *monotoneKernel) deliver(e uint32, val uint64) (uint32, bool, bool) {
	if int(e) >= k.g.M() {
		return 0, false, false // stale frame: no such edge
	}
	v := k.g.EdgeDst(e)
	if v < k.lo || v >= k.hi {
		return 0, false, false // stale frame for an edge we don't own
	}
	if k.kern.Better(val, k.vals[v-k.lo]) {
		k.vals[v-k.lo] = val
		return v, true, true
	}
	return v, false, false
}

func (k *monotoneKernel) process(v uint32, emit emitFn) {
	if k.idle(v) {
		return
	}
	val := k.vals[v-k.lo]
	eLo, _ := k.g.OutEdgeIndex(v)
	for i, dst := range k.g.OutNeighbors(v) {
		e := eLo + uint32(i)
		emit(e, dst, k.kern.Message(val, e))
	}
}

func (k *monotoneKernel) boundary(pred func(dst uint32) bool, emit emitFn) {
	for v := k.lo; v < k.hi; v++ {
		if k.idle(v) {
			continue
		}
		val := k.vals[v-k.lo]
		eLo, _ := k.g.OutEdgeIndex(v)
		for i, dst := range k.g.OutNeighbors(v) {
			if !pred(dst) {
				continue
			}
			e := eLo + uint32(i)
			emit(e, dst, k.kern.Message(val, e))
		}
	}
}

func (k *monotoneKernel) values() []uint64 { return k.vals }

func (k *monotoneKernel) encodeState() []uint64 {
	return append([]uint64(nil), k.vals...)
}

func (k *monotoneKernel) decodeState(words []uint64) error {
	if len(words) != int(k.hi-k.lo) {
		return fmt.Errorf("netdist: checkpoint holds %d values for a %d-vertex partition", len(words), k.hi-k.lo)
	}
	k.vals = append(k.vals[:0], words...)
	return nil
}

// --- PageRank by cumulative push ---

// pagerankKernel runs push-style PageRank with one twist that buys crash
// and duplicate tolerance: what crosses an edge is not the increment but
// the *cumulative* mass pushed along that edge so far. Cumulative totals
// are monotone non-decreasing and converge to a unique limit
// (d·rank(u)/outdeg(u)), so the receiver's merge — keep the max, credit
// the positive delta — absorbs duplicates, reorders, and post-rollback
// replays exactly like the min-merge of the traversal algorithms. This is
// how a non-monotonic fixed-point algorithm rides the same Theorem-2
// machinery: the transported quantity is made monotone even though ranks
// are not.
//
// Invariant: rank[v] + pending[v] + (mass in cumulative counters not yet
// credited downstream) accounts for all mass ever injected, so the final
// rank[v] + pending[v] converges to the damped PageRank fixed point
// (1-d) + d·Σ_in rank(u)/outdeg(u), within the residual threshold eps.
type pagerankKernel struct {
	g       *graph.Graph
	lo, hi  uint32
	eps     float64
	damping float64

	rank    []float64 // owned, index v-lo
	pending []float64 // owned residual not yet pushed
	outCum  []float64 // cumulative mass pushed per owned out-edge, index e-outLo
	outLo   uint32    // canonical index of the first owned out-edge
	inCum   []float64 // last-seen cumulative per owned in-edge, by in-slot
	inSlot  map[uint32]int
	inDst   map[uint32]uint32
}

func (k *pagerankKernel) init() {
	// Owned out-edges form one contiguous canonical range because the
	// partition is a contiguous vertex range.
	outHi := uint32(0)
	if k.hi > k.lo {
		k.outLo, _ = k.g.OutEdgeIndex(k.lo)
		_, outHi = k.g.OutEdgeIndex(k.hi - 1)
	}
	k.outCum = make([]float64, outHi-k.outLo)
	k.inSlot = make(map[uint32]int)
	k.inDst = make(map[uint32]uint32)
	slots := 0
	for v := k.lo; v < k.hi; v++ {
		for _, e := range k.g.InEdgeIndices(v) {
			k.inSlot[e] = slots
			k.inDst[e] = v
			slots++
		}
	}
	k.inCum = make([]float64, slots)
}

func (k *pagerankKernel) reset() []uint32 {
	n := int(k.hi - k.lo)
	k.rank = make([]float64, n)
	k.pending = make([]float64, n)
	for i := range k.outCum {
		k.outCum[i] = 0
	}
	for i := range k.inCum {
		k.inCum[i] = 0
	}
	seeds := make([]uint32, 0, n)
	for v := k.lo; v < k.hi; v++ {
		k.pending[v-k.lo] = 1 - k.damping
		seeds = append(seeds, v)
	}
	return seeds
}

func (k *pagerankKernel) deliver(e uint32, val uint64) (uint32, bool, bool) {
	slot, ok := k.inSlot[e]
	if !ok {
		return 0, false, false
	}
	v := k.inDst[e]
	cum := math.Float64frombits(val)
	if cum <= k.inCum[slot] {
		return v, false, false // duplicate, reorder, or post-rollback replay
	}
	delta := cum - k.inCum[slot]
	k.inCum[slot] = cum
	k.pending[v-k.lo] += delta
	return v, true, k.pending[v-k.lo] > k.eps
}

func (k *pagerankKernel) process(v uint32, emit emitFn) {
	p := k.pending[v-k.lo]
	if p <= k.eps {
		return // below threshold: hold the residual
	}
	k.pending[v-k.lo] = 0
	k.rank[v-k.lo] += p
	out := k.g.OutNeighbors(v)
	if len(out) == 0 {
		return // dangling: mass dropped, as in the shared-memory engine
	}
	share := k.damping * p / float64(len(out))
	eLo, _ := k.g.OutEdgeIndex(v)
	for i, dst := range out {
		e := eLo + uint32(i)
		k.outCum[e-k.outLo] += share
		emit(e, dst, math.Float64bits(k.outCum[e-k.outLo]))
	}
}

func (k *pagerankKernel) boundary(pred func(dst uint32) bool, emit emitFn) {
	for v := k.lo; v < k.hi; v++ {
		eLo, _ := k.g.OutEdgeIndex(v)
		for i, dst := range k.g.OutNeighbors(v) {
			if !pred(dst) {
				continue
			}
			e := eLo + uint32(i)
			if cum := k.outCum[e-k.outLo]; cum > 0 {
				emit(e, dst, math.Float64bits(cum))
			}
		}
	}
}

func (k *pagerankKernel) values() []uint64 {
	out := make([]uint64, len(k.rank))
	for i := range out {
		// Fold the unpushed residual back in: tightens the estimate by up
		// to eps without disturbing the pushed totals.
		out[i] = math.Float64bits(k.rank[i] + k.pending[i])
	}
	return out
}

func (k *pagerankKernel) encodeState() []uint64 {
	words := make([]uint64, 0, 2*len(k.rank)+len(k.outCum)+len(k.inCum))
	for _, f := range k.rank {
		words = append(words, math.Float64bits(f))
	}
	for _, f := range k.pending {
		words = append(words, math.Float64bits(f))
	}
	for _, f := range k.outCum {
		words = append(words, math.Float64bits(f))
	}
	for _, f := range k.inCum {
		words = append(words, math.Float64bits(f))
	}
	return words
}

func (k *pagerankKernel) decodeState(words []uint64) error {
	n := int(k.hi - k.lo)
	want := 2*n + len(k.outCum) + len(k.inCum)
	if len(words) != want {
		return fmt.Errorf("netdist: pagerank checkpoint holds %d words, want %d", len(words), want)
	}
	k.rank = make([]float64, n)
	k.pending = make([]float64, n)
	take := func(dst []float64) {
		for i := range dst {
			dst[i] = math.Float64frombits(words[0])
			words = words[1:]
		}
	}
	take(k.rank)
	take(k.pending)
	take(k.outCum)
	take(k.inCum)
	return nil
}
