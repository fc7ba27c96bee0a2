package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

// sortedIntersect returns the sorted intersection of two sorted,
// duplicate-free slices.
func sortedIntersect(a, b []int) []int {
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

func TestSortedSetOps(t *testing.T) {
	a := []int{1, 3, 5, 7}
	b := []int{3, 4, 5, 8}
	if got := SortedUnion(a, b); !EqualSets(got, []int{1, 3, 4, 5, 7, 8}) {
		t.Errorf("SortedUnion = %v", got)
	}
	if got := sortedIntersect(a, b); !EqualSets(got, []int{3, 5}) {
		t.Errorf("sortedIntersect = %v", got)
	}
}

func TestSortedSetOpsEmpty(t *testing.T) {
	a := []int{1, 2}
	if got := SortedUnion(a, nil); !EqualSets(got, a) {
		t.Errorf("SortedUnion(a, nil) = %v", got)
	}
	if got := sortedIntersect(a, nil); len(got) != 0 {
		t.Errorf("sortedIntersect(a, nil) = %v", got)
	}
}

func TestSortedContains(t *testing.T) {
	a := []int{2, 4, 6}
	if !SortedContains(a, 4) || SortedContains(a, 5) || SortedContains(nil, 1) {
		t.Error("SortedContains wrong")
	}
}

func TestIsSubset(t *testing.T) {
	tests := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 3}, []int{1, 2, 3}, true},
		{[]int{1, 4}, []int{1, 2, 3}, false},
		{nil, []int{1}, true},
		{[]int{1}, nil, false},
		{[]int{1, 2, 3}, []int{1, 2, 3}, true},
	}
	for _, tt := range tests {
		if got := IsSubset(tt.a, tt.b); got != tt.want {
			t.Errorf("IsSubset(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestDedup(t *testing.T) {
	got := Dedup([]int{5, 1, 5, 3, 1})
	if !EqualSets(got, []int{1, 3, 5}) {
		t.Errorf("Dedup = %v", got)
	}
}

// Property: set operations agree with map-based reference implementations.
func TestSetOpsAgainstMapsProperty(t *testing.T) {
	toSet := func(s []int) map[int]bool {
		m := make(map[int]bool)
		for _, v := range s {
			m[v] = true
		}
		return m
	}
	fromMap := func(m map[int]bool) []int {
		var out []int
		for v := range m {
			out = append(out, v)
		}
		sort.Ints(out)
		return out
	}
	f := func(rawA, rawB []uint8) bool {
		var a, b []int
		for _, x := range rawA {
			a = append(a, int(x%32))
		}
		for _, x := range rawB {
			b = append(b, int(x%32))
		}
		a, b = Dedup(a), Dedup(b)
		ma, mb := toSet(a), toSet(b)
		union := make(map[int]bool)
		inter := make(map[int]bool)
		for v := range ma {
			union[v] = true
			if mb[v] {
				inter[v] = true
			}
		}
		for v := range mb {
			union[v] = true
		}
		if !EqualSets(SortedUnion(a, b), fromMap(union)) {
			return false
		}
		return EqualSets(sortedIntersect(a, b), fromMap(inter))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
