// Positive kernelcheck fixtures: law-clean kernels with honest
// capability flags are silent.
package kernelcheck

// GoodMin is the WCC shape: propagate the smaller word, strict
// less-than improvement. Irreflexive, antisymmetric, transitive, total.
func GoodMin() Kernel {
	return Kernel{
		Name:    "goodmin",
		Message: func(srcVal uint64, e uint32) uint64 { return srcVal },
		Better:  func(candidate, current uint64) bool { return candidate < current },
	}
}

// GoodEdge is the SSSP shape: the offer depends on the edge.
func GoodEdge() Kernel {
	return Kernel{
		Name:    "goodedge",
		Message: func(srcVal uint64, e uint32) uint64 { return srcVal + uint64(e) },
		Better:  func(candidate, current uint64) bool { return candidate < current },
	}
}

// GoodFOW is the BFS shape: the unreached word is the maximum, so it
// never displaces an accepted offer.
func GoodFOW() Kernel {
	return Kernel{
		Name:           "goodfow",
		FirstOfferWins: true,
		Unreached:      ^uint64(0),
		Message:        func(srcVal uint64, e uint32) uint64 { return srcVal + 1 },
		Better:         func(candidate, current uint64) bool { return candidate < current },
	}
}
