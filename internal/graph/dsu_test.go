package graph

import (
	"testing"
	"testing/quick"
)

func TestDSUBasic(t *testing.T) {
	d := NewDSU(5)
	if d.SetCount() != 5 {
		t.Fatalf("SetCount = %d, want 5", d.SetCount())
	}
	if !d.Union(0, 1) {
		t.Error("first Union(0,1) = false")
	}
	if d.Union(0, 1) {
		t.Error("second Union(0,1) = true")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Error("Same gave wrong answers")
	}
	d.Union(2, 3)
	d.Union(1, 2)
	if d.SetCount() != 2 {
		t.Errorf("SetCount = %d, want 2", d.SetCount())
	}
}

// Property: after uniting along the edges of a graph, Same(u, v) agrees with
// graph connectivity.
func TestDSUMatchesComponentsProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%25) + 1
		g := randomGraph(n, 0.15, seed)
		d := NewDSU(n)
		for _, e := range g.Edges() {
			d.Union(e[0], e[1])
		}
		ids := g.ComponentIDs()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if d.Same(u, v) != (ids[u] == ids[v]) {
					return false
				}
			}
		}
		return d.SetCount() == g.NumComponents()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
