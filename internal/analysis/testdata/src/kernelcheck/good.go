// Positive kernelcheck fixtures: law-clean kernels with honest
// capability flags are silent.
package kernelcheck

import "math"

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

// GoodFOW is the BFS shape: float64 hop counts with +Inf unreached, so
// the unreached word never displaces an accepted offer, and a finite hop
// count plus one is never +Inf. (A uint64 count with the maximum as
// Unreached is refuted: srcVal+1 wraps onto it.)
func GoodFOW() Kernel {
	return Kernel{
		Name:           "goodfow",
		FirstOfferWins: true,
		Unreached:      math.Float64bits(math.Inf(1)),
		Message: func(srcVal uint64, e uint32) uint64 {
			return math.Float64bits(math.Float64frombits(srcVal) + 1)
		},
		Better: func(candidate, current uint64) bool {
			return math.Float64frombits(candidate) < math.Float64frombits(current)
		},
	}
}
