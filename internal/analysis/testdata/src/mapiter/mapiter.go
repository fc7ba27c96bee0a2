// Package mapiter exercises the mapiter analyzer: every map walk is
// flagged, order-insensitive shapes included, unless a justified
// directive covers it; a range over sorted keys is clean.
package mapiter

import (
	"maps"
	"slices"
	"sort"
)

// flagged builds output directly from map order.
func flagged(m map[int]bool) []int {
	var out []int
	for k := range m { // want `iteration over map`
		out = append(out, k*2)
	}
	return out
}

// transformThenUse appends a transformed key but never sorts.
func transformThenUse(m map[int]string) string {
	s := ""
	for _, v := range m { // want `iteration over map`
		s = s + v
	}
	return s
}

// floatSum is rejected even though += looks commutative: float addition
// is not associative, so visit order leaks into the low bits.
func floatSum(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m { // want `iteration over map`
		s += v
	}
	return s
}

// collectSort is flagged although sorting makes it deterministic: the
// rule does not judge loop bodies, so the clean form is sortedKeys.
func collectSort(m map[int]bool) []int {
	var keys []int
	for k := range m { // want `iteration over map`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// collectSortSlice uses sort.Slice on a struct collector.
func collectSortSlice(m map[string]int) []string {
	var names []string
	for n := range m { // want `iteration over map`
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// intSum: integer accumulation commutes, but is flagged all the same.
func intSum(m map[int]int) int {
	sum := 0
	for _, v := range m { // want `iteration over map`
		sum += v
	}
	return sum
}

// counter: ++ commutes, but is flagged all the same.
func counter(m map[int]bool) int {
	n := 0
	for range m { // want `iteration over map`
		n++
	}
	return n
}

// maxFold: the guarded running-max update commutes, but is flagged.
func maxFold(m map[int]int) int {
	best := 0
	for _, v := range m { // want `iteration over map`
		if v > best {
			best = v
		}
	}
	return best
}

// setInsert: inserting constant values into a set commutes, but is
// flagged.
func setInsert(m map[int]int) map[int]bool {
	seen := map[int]bool{}
	for k := range m { // want `iteration over map`
		seen[k] = true
	}
	return seen
}

// forall is a pure quantifier scan: whichever element fails first, the
// returned value is the same. It needs a directive to say so.
func forall(m map[int][]int) bool {
	for _, vs := range m { // want `iteration over map`
		for _, v := range vs {
			if v < 0 {
				return false
			}
		}
	}
	return true
}

// sortedKeys is the clean shape: a range over an iterator is not a
// range over a map.
func sortedKeys(m map[int]bool) []int {
	var keys []int
	for _, k := range slices.Sorted(maps.Keys(m)) {
		keys = append(keys, k)
	}
	return keys
}

// justified carries a directive with a written reason.
func justified(m map[int]bool) []int {
	var out []int
	//mdsvet:ignore mapiter -- consumer treats out as an unordered set
	for k := range m {
		out = append(out, k+1)
	}
	return out
}

// bareDirective is NOT suppressed: a directive without "-- reason" is
// malformed and must not have the power of a justified one.
func bareDirective(m map[int]bool) []int {
	var out []int
	//mdsvet:ignore mapiter
	for k := range m { // want `iteration over map`
		out = append(out, k+1)
	}
	return out
}

// wrongName: a directive naming a different analyzer does not suppress
// mapiter findings.
func wrongName(m map[int]bool) []int {
	var out []int
	//mdsvet:ignore seedflow -- reason aimed at the wrong analyzer
	for k := range m { // want `iteration over map`
		out = append(out, k+1)
	}
	return out
}
