package graph

// TrueTwinClasses partitions V(g) into true-twin equivalence classes,
// returned as sorted slices ordered by smallest member. Singleton classes
// are included.
func (g *Graph) TrueTwinClasses() [][]int {
	// Group by closed-neighborhood fingerprint. Two vertices with equal
	// closed neighborhoods necessarily hash to the same key. Vertices are
	// visited in ascending order, so each class is sorted and the classes
	// come out ordered by smallest member.
	var classes [][]int
	index := make(map[string]int, g.N())
	for v := 0; v < g.N(); v++ {
		key := fingerprint(g.ClosedNeighborhood(v))
		if i, ok := index[key]; ok {
			classes[i] = append(classes[i], v)
		} else {
			index[key] = len(classes)
			classes = append(classes, []int{v})
		}
	}
	return classes
}

// TwinReduction computes the true-twin-less graph G⁻ associated to g (§2 of
// the paper): one representative (the smallest vertex) is kept per
// true-twin class. It returns the reduced graph and the mapping from new
// indices to original representatives. MDS(G⁻) = MDS(G).
//
// Twin classes can collapse transitively: removing one twin may create new
// twins. The reduction iterates to a fixpoint, matching "a largest subgraph
// of G with no true twins".
//
// Production code reduces with TwinReduceCSR. TwinReduction is its
// adjacency-list specification, called only from tests:
// twinscsr_test.go, twins_test.go and example_test.go here,
// internal/mds/mds_test.go, and the internal/core oracles in
// alg1_reference_test.go and d2_reference_test.go.
func (g *Graph) TwinReduction() (*Graph, []int) {
	cur := g.Clone()
	mapping := make([]int, g.N())
	for i := range mapping {
		mapping[i] = i
	}
	for {
		classes := cur.TrueTwinClasses()
		reps := make([]int, 0, len(classes))
		shrunk := false
		for _, c := range classes {
			reps = append(reps, c[0])
			if len(c) > 1 {
				shrunk = true
			}
		}
		if !shrunk {
			return cur, mapping
		}
		next, idx := cur.Induced(reps)
		newMapping := make([]int, len(idx))
		for i, old := range idx {
			newMapping[i] = mapping[old]
		}
		cur, mapping = next, newMapping
	}
}

// fingerprint encodes a sorted int slice as a compact string map key.
func fingerprint(s []int) string {
	buf := make([]byte, 0, len(s)*3)
	for _, v := range s {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}
