//go:build !race

package ndgraph_test

// raceEnabled mirrors the race build tag.
const raceEnabled = false
