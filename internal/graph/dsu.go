package graph

// DSU is a disjoint-set union (union-find) structure with union by size and
// path compression. It is used by generators and the SPQR decomposition.
type DSU struct {
	parent []int
	size   []int
	sets   int
}

// NewDSU returns a DSU over n singleton sets.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), size: make([]int, n), sets: n}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened.
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.size[rx] < d.size[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	d.size[rx] += d.size[ry]
	d.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// SetCount returns the current number of disjoint sets.
func (d *DSU) SetCount() int { return d.sets }
