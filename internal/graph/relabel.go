package graph

import (
	"fmt"
	"sort"
)

// This file provides vertex relabeling. Labels matter in this framework
// beyond identity: the paper's dispatch (Fig. 1) partitions scheduled
// vertices into contiguous *label* blocks, and each thread processes its
// block small-label-first, so the label order determines both load
// balance (where the hubs land) and the absolute scheduling order π.
// Relabeling is therefore an experimental knob, exercised by the
// ablation experiments.

// Relabel returns a new graph in which old vertex v becomes perm[v], plus
// nothing else changed. perm must be a permutation of [0, N).
func Relabel(g *Graph, perm []uint32) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("graph: permutation has %d entries for %d vertices", len(perm), g.N())
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if int(p) >= g.N() || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation (entry %d)", p)
		}
		seen[p] = true
	}
	es := g.Edges()
	for i := range es {
		es[i].Src = perm[es[i].Src]
		es[i].Dst = perm[es[i].Dst]
	}
	return Build(es, Options{NumVertices: g.N()})
}

// DegreeDescOrder returns a permutation that relabels vertices by
// descending total degree (hubs get the smallest labels; ties keep the
// original relative order). Under Fig. 1 dispatch this concentrates the
// hubs in the first thread's block.
func DegreeDescOrder(g *Graph) []uint32 {
	order := make([]uint32, g.N())
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	// order[newLabel] = oldVertex; invert to perm[oldVertex] = newLabel.
	perm := make([]uint32, g.N())
	for newLabel, old := range order {
		perm[old] = uint32(newLabel)
	}
	return perm
}

// DegreeInterleaveOrder returns a permutation that deals vertices in
// descending-degree order round-robin across p buckets, then concatenates
// the buckets — spreading the hubs evenly across the p label blocks of
// Fig. 1 dispatch.
func DegreeInterleaveOrder(g *Graph, p int) []uint32 {
	if p < 1 {
		p = 1
	}
	order := make([]uint32, g.N())
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	buckets := make([][]uint32, p)
	for i, v := range order {
		b := i % p
		buckets[b] = append(buckets[b], v)
	}
	perm := make([]uint32, g.N())
	newLabel := uint32(0)
	for _, b := range buckets {
		for _, old := range b {
			perm[old] = newLabel
			newLabel++
		}
	}
	return perm
}
