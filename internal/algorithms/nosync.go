package algorithms

import (
	"fmt"

	"ndgraph/internal/eligibility"
	"ndgraph/internal/graph"
)

// NoSyncVerdict obtains the eligibility verdict that admits (or refuses)
// a to the barrier-free no-sync tier. A built-in algorithm gets its
// embedded certificate's verdict (Source "cert") — a worst case over all
// graphs, so an ELIGIBLE answer holds for every input without running
// anything. The certificate is chosen by a's concrete type, the code it
// was derived from, never by Name(): any other type, including one that
// embeds a built-in, falls back to an instrumented probe run on g, which
// observes the actual potential conflicts of this input.
func NoSyncVerdict(a Algorithm, g *graph.Graph) (eligibility.Verdict, error) {
	if name := certName(a); name != "" {
		v, err := CertVerdict(name)
		if err != nil {
			return eligibility.Verdict{}, err
		}
		return *v, nil
	}
	_, v, err := Probe(a, g)
	if err != nil {
		return eligibility.Verdict{}, fmt.Errorf("algorithms: %s: probe for no-sync admission: %w", a.Name(), err)
	}
	return v, nil
}

// certName names the embedded update certificate derived from a's
// concrete type, or returns "" when a is not a built-in type. BFS is an
// *SSSP and runs SSSP's update, so both take the "sssp" certificate.
func certName(a Algorithm) string {
	switch a.(type) {
	case *PageRank:
		return "pagerank"
	case *WCC:
		return "wcc"
	case *SSSP:
		return "sssp"
	case *SpMV:
		return "spmv"
	case *KCore:
		return "kcore"
	case *LabelProp:
		return "labelprop"
	case *Coloring:
		return "coloring"
	}
	return ""
}
