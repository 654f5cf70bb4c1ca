// Package kernelcheck exercises the kernel-pair verifier. Kernel
// replicates internal/algorithms.Kernel structurally — the pass matches
// the type by name and field signatures, so the fixture stays
// self-contained.
package kernelcheck

// Kernel mirrors ndgraph/internal/algorithms.Kernel.
type Kernel struct {
	Name           string
	Undirected     bool
	Message        func(srcVal uint64, e uint32) uint64
	Better         func(candidate, current uint64) bool
	FirstOfferWins bool
	Unreached      uint64
}
