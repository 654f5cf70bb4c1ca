package netdist

import (
	"fmt"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/loader"
)

// GraphSpec describes a graph generatively so it can cross the wire as a
// few integers instead of an edge dump: every worker rebuilds the
// identical graph locally from (kind, size, seed). The "edges" kind
// carries an explicit edge list for tests with hand-built topologies; the
// "file" kind names a graph file every worker reads, as distributed jobs
// start from shared storage.
type GraphSpec struct {
	Kind  string      `json:"kind"` // "rmat", "ring", "chain", "edges" or "file"
	N     int         `json:"n"`
	M     int         `json:"m,omitempty"`
	Seed  uint64      `json:"seed,omitempty"`
	Edges [][2]uint32 `json:"edges,omitempty"` // kind "edges" only
	// Path is the graph file of kind "file", in any format loader.LoadFile
	// reads (the binary CSR .bin loads fastest). N, when set, must match
	// the file's vertex count.
	Path string `json:"path,omitempty"`
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
	case "file":
		g, err := loader.LoadFile(s.Path, graph.Options{NumVertices: s.N})
		if err != nil {
			return nil, err
		}
		if s.N > 0 && g.N() != s.N {
			return nil, fmt.Errorf("netdist: graph file %s has %d vertices, spec says %d", s.Path, g.N(), s.N)
		}
		return g, nil
	}
	return nil, fmt.Errorf("netdist: unknown graph kind %q", s.Kind)
}

// AlgoSpec names the algorithm and its parameters. WeightSeed feeds the
// same weight generator the shared-memory engine uses
// (algorithms.NewSSSP), so distributed SSSP distances are byte-identical
// to the core engine's.
type AlgoSpec struct {
	Name       string `json:"name"` // "wcc", "bfs" or "sssp"
	Source     uint32 `json:"source,omitempty"`
	WeightSeed uint64 `json:"weight_seed,omitempty"`
	// Eps is read by nothing: netdist runs only the certified monotone
	// kernels, so it has no PageRank residual threshold to set. The field
	// stays only because bench/tier_netdist.go sets it.
	Eps float64 `json:"eps,omitempty"`
}

// emitFn receives an outgoing update from a kernel: the canonical edge it
// travels along, the destination vertex, and the value. The worker routes
// it — locally for intra-partition edges, over TCP otherwise.
type emitFn func(e, dst uint32, val uint64)

// testKernel supplies the kernel for a name newKernel does not know. It
// knows none; this package's tests replace it to run a hooked kernel through
// real workers.
var testKernel = func(string) (algorithms.Kernel, bool) { return algorithms.Kernel{}, false }

// newKernel builds the kernel for spec over partition id of t. The graph
// g must be the base directed graph of the job. WCC, BFS and SSSP run the
// certified algorithms.Kernel of the same name, on the symmetrized graph
// when the kernel is Undirected (min-label propagation needs both
// directions).
func newKernel(spec AlgoSpec, g *graph.Graph, t Table, id int) (*monotoneKernel, error) {
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

// monotoneKernel is the partition-local computation: it runs an
// algorithms.Kernel, the Theorem-2 family, over the owned vertex range, with
// no knowledge of queues or sockets. Values only improve under Better's
// strict order, so the merge is idempotent and commutative — duplicated,
// reordered, and replayed deliveries are all absorbed for free, which is
// what makes at-least-once transport and crash repair sound, and the owned
// values are all a checkpoint must capture. All methods are called from the
// worker's single compute goroutine.
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

// reset cold-starts the owned state and returns the initially scheduled
// owned vertices.
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

// deliver merges an incoming value along owned in-edge e. It returns the
// destination vertex and whether the value was adopted, in which case the
// vertex needs (re)scheduling.
func (k *monotoneKernel) deliver(e uint32, val uint64) (uint32, bool) {
	if int(e) >= k.g.M() {
		return 0, false // stale frame: no such edge
	}
	v := k.g.EdgeDst(e)
	if v < k.lo || v >= k.hi {
		return 0, false // stale frame for an edge we don't own
	}
	if k.kern.Better(val, k.vals[v-k.lo]) {
		k.vals[v-k.lo] = val
		return v, true
	}
	return v, false
}

// process runs the update function of owned vertex v, emitting outgoing
// updates along its out-edges.
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

// boundary emits the current value along every owned out-edge whose
// destination satisfies pred — the Theorem-2 ripple-repair resend.
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
