package graph

// SetGenerations moves every generation counter of a to g, so a test can
// drive the counters across math.MaxInt32 without 2^31 operations. Call it
// after a has served the graph, or the next grow resets the counters.
func (a *Arena) SetGenerations(g int32) {
	a.stamp, a.posGen, a.seenGen = g, g, g
}

// Stamps returns a's mark generation. Every BFS takes a fresh one, so on
// a warm arena the difference across a call counts the BFS runs it made.
func (a *Arena) Stamps() int32 { return a.stamp }

// Eccentricity returns the maximum distance from v to any reachable
// vertex: the one-BFS-per-vertex oracle diameter_test.go checks
// CSR.Diameter against.
func (c *CSR) Eccentricity(v int, a *Arena) int {
	_, ecc := c.boundedBFS([]int32{int32(v)}, -1, a)
	return ecc
}
