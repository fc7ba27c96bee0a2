package core

import (
	"testing"

	"localmds/internal/local"
)

// Regression test for the flood-seed map walk in floodProcess.Round
// (alg1process.go), run once per rule: the first flooding-phase broadcast
// is seeded from the records map, and its wire order must not depend on Go's randomized
// map iteration. With 16 records, an unsorted seed would produce a
// differing order within a few repetitions with overwhelming
// probability.

// seedRecords returns a records map whose PartNbrs reference an unknown
// vertex, so the component never closes and Round stops after the
// broadcast (no componentPicks).
func seedRecords() map[int]partRecord {
	m := make(map[int]partRecord)
	for _, id := range []int{11, 3, 29, 7, 23, 2, 17, 5, 31, 13, 19, 37, 41, 43, 47, 53} {
		m[id] = partRecord{PartNbrs: []int{999}, Undominated: id%2 == 0}
	}
	return m
}

// broadcastIDs extracts the record IDs of the first outgoing flood
// message.
func broadcastIDs(t *testing.T, out []local.Message) []int {
	t.Helper()
	if len(out) == 0 {
		t.Fatal("no broadcast produced")
	}
	fm, ok := out[0].(*floodMsg)
	if !ok {
		t.Fatalf("broadcast message has type %T, want *floodMsg", out[0])
	}
	ids := make([]int, len(fm.records))
	for i, r := range fm.records {
		ids[i] = r.ID
	}
	return ids
}

func assertStableSeedOrder(t *testing.T, run func() []int) {
	t.Helper()
	first := run()
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("seed broadcast not sorted by ID: %v", first)
		}
	}
	for rep := 0; rep < 50; rep++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("rep %d: %d records, want %d", rep, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("rep %d: broadcast order changed: %v vs %v", rep, got, first)
			}
		}
	}
}

// floodSeedOrder runs the first flooding round of a floodProcess with
// rule and the seedRecords, and returns the broadcast's record IDs.
func floodSeedOrder(t *testing.T, rule floodRule) []int {
	t.Helper()
	a := &floodProcess{
		rule:         rule,
		gatherRounds: 0,
		records:      seedRecords(),
		info:         local.NodeInfo{ID: 1, Ports: 2, N: 64},
	}
	out, done := a.Round(1, nil)
	if done {
		t.Fatal("component unexpectedly closed")
	}
	return broadcastIDs(t, out)
}

func TestAlg1FloodSeedDeterministic(t *testing.T) {
	assertStableSeedOrder(t, func() []int { return floodSeedOrder(t, mdsFlood{}) })
}

func TestMVCAlg1FloodSeedDeterministic(t *testing.T) {
	assertStableSeedOrder(t, func() []int { return floodSeedOrder(t, mvcFlood{}) })
}
