// Domination predicates and the greedy B-dominating baseline over a frozen
// graph.CSR: Algorithm 1's step-4 fallback and its checks, with their
// state in flat arrays. The exact solvers (mds.go, mvc.go) are CSR-native
// too.
package mds

import (
	"sort"

	"localmds/internal/graph"
)

// DominatesSetCSR reports whether every vertex of target is in s or
// adjacent to a member of s, over the CSR view.
func DominatesSetCSR(c *graph.CSR, s, target []int) bool {
	n := c.N()
	dominated := make([]bool, n)
	for _, v := range s {
		if v < 0 || v >= n {
			return false
		}
		dominated[v] = true
		for _, u := range c.Row(v) {
			dominated[u] = true
		}
	}
	for _, v := range target {
		if !dominated[v] {
			return false
		}
	}
	return true
}

// IsDominatingSetCSR reports whether s dominates every vertex of c.
func IsDominatingSetCSR(c *graph.CSR, s []int) bool {
	n := c.N()
	dominated := make([]bool, n)
	for _, v := range s {
		if v < 0 || v >= n {
			return false
		}
		dominated[v] = true
		for _, u := range c.Row(v) {
			dominated[u] = true
		}
	}
	for v := 0; v < n; v++ {
		if !dominated[v] {
			return false
		}
	}
	return true
}

// GreedyBDominatingCSR returns the classical greedy cover of target over
// the CSR view: repeatedly pick the vertex dominating the most
// still-needed target vertices (smallest index on ties), until target is
// covered. It selects exactly the vertices the adjacency-list greedy
// picks.
func GreedyBDominatingCSR(c *graph.CSR, target []int) []int {
	n := c.N()
	need := make([]bool, n)
	remaining := 0
	for _, v := range target {
		if !need[v] {
			need[v] = true
			remaining++
		}
	}
	var sol []int
	for remaining > 0 {
		bestV, bestGain := -1, 0
		for v := 0; v < n; v++ {
			gain := 0
			if need[v] {
				gain++
			}
			for _, u := range c.Row(v) {
				if need[u] {
					gain++
				}
			}
			if gain > bestGain {
				bestV, bestGain = v, gain
			}
		}
		if bestV < 0 {
			break // unreachable: every needed vertex dominates itself
		}
		sol = append(sol, bestV)
		if need[bestV] {
			need[bestV] = false
			remaining--
		}
		for _, u := range c.Row(bestV) {
			if need[u] {
				need[u] = false
				remaining--
			}
		}
	}
	sort.Ints(sol)
	return sol
}
