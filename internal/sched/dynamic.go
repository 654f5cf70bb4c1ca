package sched

// Dispatch selects how a parallel scheduler assigns scheduled updates to
// workers within an iteration.
type Dispatch int

const (
	// Static is the paper's Fig. 1 policy: contiguous label blocks, one
	// per worker, fixed before the iteration starts. The core engine cuts
	// them at equal shares of updates plus incident edges (Cuts).
	Static Dispatch = iota
	// Dynamic hands out fixed-size chunks from a shared cursor as workers
	// free up (OpenMP dynamic). It trades the predictable π order — and
	// with it the paper's order model — for load balance on skewed
	// degree distributions.
	Dynamic
)

// String names the dispatch policy.
func (d Dispatch) String() string {
	if d == Static {
		return "static"
	}
	return "dynamic"
}

// ParseDispatch maps a name back to a Dispatch.
func ParseDispatch(s string) (Dispatch, bool) {
	switch s {
	case "static":
		return Static, true
	case "dynamic":
		return Dynamic, true
	default:
		return 0, false
	}
}

// DefaultChunk is the dynamic-dispatch chunk size: large enough to
// amortize the shared-cursor contention, small enough to balance hubs.
const DefaultChunk = 64
