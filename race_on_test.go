//go:build race

package ndgraph_test

// raceEnabled lets root tests drop ModeAligned (benign races by design)
// under the race detector.
const raceEnabled = true
