package graph

import "sort"

// VSet is a small sorted-slice vertex-set helper shared by the algorithm
// packages. Operations return new slices and never alias their inputs.

// SortedUnion returns the sorted union of two sorted, duplicate-free slices.
func SortedUnion(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// SortedIntersect returns the sorted intersection of two sorted,
// duplicate-free slices. Only tests call it: core's alg1_test.go and
// minorbound_test.go, cuts' edgecases_test.go and tarjan_test.go, and
// graph's vset_test.go.
func SortedIntersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SortedContains reports whether sorted slice a contains x.
func SortedContains(a []int, x int) bool {
	i := sort.SearchInts(a, x)
	return i < len(a) && a[i] == x
}

// IsSubset reports whether every element of sorted slice a is in sorted
// slice b.
func IsSubset(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) {
			return false
		}
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// Dedup returns a sorted duplicate-free copy of s.
func Dedup(s []int) []int { return dedupSorted(s) }

// EqualSets reports whether two sorted duplicate-free slices are equal.
// Only tests call it, as the set-equality assertion of the core, cuts,
// graph, local and mds tests.
func EqualSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
