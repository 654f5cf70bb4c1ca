//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: gated runs
// are refused and ModeAligned (benign races by design) is skipped.
const raceEnabled = true
