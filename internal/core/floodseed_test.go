package core

import (
	"testing"

	"localmds/internal/local"
)

// Regression test for the flood seed in floodProcess.Round
// (alg1process.go), run once per rule: the first flooding-phase broadcast
// carries exactly the process's own record, the only one present after
// decide, so its wire contents cannot depend on Go's randomized map
// iteration.

// seedID is the identifier of the process under test.
const seedID = 29

// seedRecords returns the records map as decide leaves it: the own
// record alone, whose PartNbrs reference an unknown vertex, so the
// component never closes and Round stops after the broadcast (no
// componentPicks).
func seedRecords() map[int]partRecord {
	return map[int]partRecord{seedID: {PartNbrs: []int{999}, Undominated: true}}
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

func assertOwnSeed(t *testing.T, got []int) {
	t.Helper()
	if len(got) != 1 || got[0] != seedID {
		t.Fatalf("seed broadcast carries records %v, want only the own record [%d]", got, seedID)
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
		info:         local.NodeInfo{ID: seedID, Ports: 2, N: 64},
	}
	out, done := a.Round(1, nil)
	if done {
		t.Fatal("component unexpectedly closed")
	}
	return broadcastIDs(t, out)
}

func TestAlg1FloodSeedDeterministic(t *testing.T) {
	assertOwnSeed(t, floodSeedOrder(t, mdsFlood{}))
}

func TestMVCAlg1FloodSeedDeterministic(t *testing.T) {
	assertOwnSeed(t, floodSeedOrder(t, mvcFlood{}))
}
