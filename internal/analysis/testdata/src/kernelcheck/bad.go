// Negative kernelcheck fixtures: broken order laws and a dishonest
// capability flag, each refuted with a concrete counter-example.
package kernelcheck

// BadNeq's Better holds between ANY distinct pair — both directions at
// once, so two workers can improve each other's value forever, and the
// improvement relation cycles.
func BadNeq() Kernel {
	return Kernel{ // want `Better is not antisymmetric` `Better is not transitive`
		Name:    "badneq",
		Message: func(srcVal uint64, e uint32) uint64 { return srcVal },
		Better:  func(candidate, current uint64) bool { return candidate != current },
	}
}

// BadFOW declares FirstOfferWins with an unreached word of zero under a
// min-improvement order: the initial state beats every offer.
func BadFOW() Kernel {
	return Kernel{ // want `declares FirstOfferWins but Better`
		Name:           "badfow",
		FirstOfferWins: true,
		Unreached:      0,
		Message:        func(srcVal uint64, e uint32) uint64 { return srcVal + 1 },
		Better:         func(candidate, current uint64) bool { return candidate < current },
	}
}

// BadFOWMessage declares FirstOfferWins with the maximum as its unreached
// word, which Better never prefers, but its Message offers that very
// word: a reached vertex leaves its neighbor unreached and scheduled.
func BadFOWMessage() Kernel {
	return Kernel{ // want `declares FirstOfferWins but Message`
		Name:           "badfowmessage",
		FirstOfferWins: true,
		Unreached:      ^uint64(0),
		Message:        func(srcVal uint64, e uint32) uint64 { return ^uint64(0) },
		Better:         func(candidate, current uint64) bool { return candidate < current },
	}
}
