// Package admitcheck exercises the residual-metric verifier. The
// Properties/Condition types replicate internal/eligibility's — the pass
// extracts declarations by field name, so the fixture stays
// self-contained.
package admitcheck

// Condition mirrors eligibility.Condition.
type Condition int

const (
	Absolute Condition = iota
	Approximate
)

// Properties mirrors eligibility.Properties.
type Properties struct {
	Name                   string
	ConvergesSynchronously bool
	ConvergesDetAsync      bool
	Monotonic              bool
	Convergence            Condition
}
