package sched

import "ndgraph/internal/graph"

// This file implements the Deterministic Interference Graph (DIG)
// scheduler of Deterministic Galois (Nguyen, Lenharth & Pingali,
// ASPLOS'14), the last deterministic scheduler the paper's related-work
// section names. Rather than colour the whole graph once (the chromatic
// scheduler of Kaler et al.), DIG partitions each iteration's *scheduled
// set* into rounds:
// two scheduled updates interfere when their vertices are adjacent (they
// would share an edge's data word), and each round is a maximal
// independent set of the interference graph, selected greedily in
// ascending label order so the partition — and therefore the execution —
// is deterministic. Updates within a round touch disjoint edges and run
// in parallel safely; rounds execute in sequence.
//
// Because only *scheduled* vertices interfere, DIG usually needs far
// fewer rounds per iteration than a whole-graph colouring has colours,
// at the cost of rebuilding the partition every iteration — exactly the
// "huge time overheads" of deterministic execution-path plotting the
// paper attributes to this scheduler family.

// DIGRounds partitions the scheduled items (ascending vertex labels) into
// deterministic rounds: greedy maximal independent sets of the
// interference graph induced by g on items. Items within each round are
// ascending; every item appears in exactly one round.
func DIGRounds(g *graph.Graph, items []int) [][]int {
	if len(items) == 0 {
		return nil
	}
	// state: 0 = unplaced, 1 = placed in some round, 2 = in current round.
	inRound := make([]bool, g.N())
	placed := make([]bool, g.N())
	scheduled := make([]bool, g.N())
	for _, v := range items {
		scheduled[v] = true
	}
	remaining := len(items)
	var rounds [][]int
	for remaining > 0 {
		var round []int
		for _, vi := range items {
			v := uint32(vi)
			if placed[v] {
				continue
			}
			conflict := false
			for _, u := range g.OutNeighbors(v) {
				if u != v && scheduled[u] && inRound[u] {
					conflict = true
					break
				}
			}
			if !conflict {
				for _, u := range g.InNeighbors(v) {
					if u != v && scheduled[u] && inRound[u] {
						conflict = true
						break
					}
				}
			}
			if conflict {
				continue
			}
			inRound[v] = true
			round = append(round, vi)
		}
		for _, vi := range round {
			inRound[uint32(vi)] = false
			placed[uint32(vi)] = true
		}
		remaining -= len(round)
		rounds = append(rounds, round)
	}
	return rounds
}

// ValidateDIGRounds checks the invariants: every item appears exactly
// once, and no round contains two adjacent vertices.
func ValidateDIGRounds(g *graph.Graph, items []int, rounds [][]int) bool {
	seen := make(map[int]bool, len(items))
	for _, round := range rounds {
		inRound := make(map[uint32]bool, len(round))
		for _, vi := range round {
			if seen[vi] {
				return false
			}
			seen[vi] = true
			inRound[uint32(vi)] = true
		}
		for _, vi := range round {
			v := uint32(vi)
			for _, u := range g.OutNeighbors(v) {
				if u != v && inRound[u] {
					return false
				}
			}
		}
	}
	return len(seen) == len(items)
}
