package main

import (
	"fmt"
	"sort"
)

// oracle checks answers against the generated edge list with the
// benchmark's own code, so a change that breaks a solver layer cannot also
// break the check that catches it.
type oracle struct {
	off []int32 // adjacency offsets, len n+1
	tgt []int32
	// lb is a 2-packing lower bound on the minimum dominating set: closed
	// neighbourhoods of a 2-packing are disjoint, so each needs its own
	// dominator.
	lb int
}

func newOracle(n int, edges [][2]int32) *oracle {
	o := &oracle{off: make([]int32, n+1), tgt: make([]int32, 2*len(edges))}
	for _, e := range edges {
		o.off[e[0]+1]++
		o.off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		o.off[v+1] += o.off[v]
	}
	fill := append([]int32(nil), o.off[:n]...)
	for _, e := range edges {
		o.tgt[fill[e[0]]] = e[1]
		fill[e[0]]++
		o.tgt[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	o.lb = o.twoPacking()
	return o
}

func (o *oracle) n() int { return len(o.off) - 1 }

func (o *oracle) row(v int32) []int32 { return o.tgt[o.off[v]:o.off[v+1]] }

// twoPacking greedily picks vertices of pairwise distance at least 3,
// lowest degree first, and returns how many it picked.
func (o *oracle) twoPacking() int {
	n := o.n()
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	deg := func(v int32) int32 { return o.off[v+1] - o.off[v] }
	sort.SliceStable(order, func(i, j int) bool { return deg(order[i]) < deg(order[j]) })
	blocked := make([]bool, n)
	picked := 0
	for _, v := range order {
		if blocked[v] {
			continue
		}
		picked++
		blocked[v] = true
		for _, u := range o.row(v) {
			blocked[u] = true
			for _, w := range o.row(u) {
				blocked[w] = true
			}
		}
	}
	return picked
}

// check reports whether s is a dominating set of the graph.
func (o *oracle) check(s []int) error {
	n := o.n()
	dom := make([]bool, n)
	for _, v := range s {
		if v < 0 || v >= n {
			return fmt.Errorf("solution vertex %d out of range [0,%d)", v, n)
		}
		dom[v] = true
		for _, u := range o.row(int32(v)) {
			dom[u] = true
		}
	}
	for v, ok := range dom {
		if !ok {
			return fmt.Errorf("vertex %d is not dominated (|S| = %d)", v, len(s))
		}
	}
	return nil
}
