// Package netdist executes the monotone propagation algorithms of the
// paper's Theorem 2 family (WCC, BFS, SSSP), each the certified
// algorithms.Kernel of its name, across N worker *processes* speaking a
// length-prefixed TCP protocol — the real-transport successor of package
// dist's in-process simulation.
//
// The design leans on the paper's central result instead of on distributed
// coordination: eligible algorithms reconverge from perturbed state, so
// the runtime's only obligations are (a) no update is lost without a retry
// path — at-least-once delivery via ack/retransmit with jittered
// exponential backoff — and (b) a recovering worker's boundary is
// re-scheduled, never the whole world. Concretely:
//
//   - the graph is partitioned into contiguous vertex ranges, one per
//     worker; cross-partition edges become messages, intra-partition edges
//     short-circuit through the worker's local queue;
//   - a coordinator supervises workers through heartbeats and restarts a
//     crashed worker from its last CRC-checksummed checkpoint (falling
//     back to the previous generation if the newest is torn);
//   - after a restart, the coordinator broadcasts a boundary repair: every
//     peer re-sends its current value along each edge crossing into the
//     restored partition, and the restored worker re-sends its own
//     crossing out-edges — Theorem 2's ripple then regenerates everything
//     the crash destroyed, exactly like internal/fault's heal rule;
//   - a partitioned worker keeps computing its local subgraph; its
//     outbound messages accumulate as unacknowledged batches and drain on
//     heal, where the monotone merge reconciles both sides;
//   - package-level fault injection is a live-connection concern: Proxy
//     interposes on worker↔worker links and injects drops, delays,
//     duplicates, reorders, and full partitions at frame granularity.
package netdist

import "fmt"

// Table is a partition table: worker k owns the contiguous vertex range
// [starts[k], starts[k+1]). Contiguity makes ownership a binary search and
// keeps each worker's out-edge range contiguous in the canonical edge
// order (the checkpoint exploits this).
type Table struct {
	starts []uint32 // len parts+1; starts[0] == 0, starts[parts] == n
}

// NewTable splits n vertices into parts contiguous ranges of near-equal
// vertex count.
func NewTable(n, parts int) (Table, error) {
	if parts < 1 {
		return Table{}, fmt.Errorf("netdist: partition count %d < 1", parts)
	}
	if parts > n && n > 0 {
		parts = n
	}
	starts := make([]uint32, parts+1)
	for k := 0; k <= parts; k++ {
		starts[k] = uint32(k * n / parts)
	}
	return Table{starts: starts}, nil
}

// TableFromStarts rebuilds a table from its serialized boundary list (the
// coordinator ships starts to workers in the init message).
func TableFromStarts(starts []uint32) (Table, error) {
	if len(starts) < 2 || starts[0] != 0 {
		return Table{}, fmt.Errorf("netdist: malformed partition boundaries %v", starts)
	}
	for k := 1; k < len(starts); k++ {
		if starts[k] < starts[k-1] {
			return Table{}, fmt.Errorf("netdist: non-monotonic partition boundaries %v", starts)
		}
	}
	return Table{starts: starts}, nil
}

// Starts returns the boundary list (length Parts+1). The returned slice
// aliases internal storage and must not be modified.
func (t Table) Starts() []uint32 { return t.starts }

// Parts returns the number of partitions.
func (t Table) Parts() int { return len(t.starts) - 1 }

// N returns the total vertex count covered by the table.
func (t Table) N() int { return int(t.starts[len(t.starts)-1]) }

// Range returns partition k's vertex range [lo, hi).
func (t Table) Range(k int) (lo, hi uint32) { return t.starts[k], t.starts[k+1] }

// OwnerOf returns the partition owning vertex v.
func (t Table) OwnerOf(v uint32) int {
	// First boundary strictly greater than v, minus one.
	lo, hi := 1, len(t.starts)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.starts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}
