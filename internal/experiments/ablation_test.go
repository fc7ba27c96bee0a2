package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRadiusAblation(t *testing.T) {
	tab, err := RadiusAblationSpec(50, []int{2, 3, 4}).RunSequential(1)
	if err != nil {
		t.Fatalf("RadiusAblation: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// |X| is non-increasing in the radius (§2 monotonicity).
	prev := 1 << 30
	for _, row := range tab.Rows {
		x, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad |X| cell %q", row[1])
		}
		if x > prev {
			t.Errorf("|X| grew with radius: %v", tab.Rows)
		}
		prev = x
	}
}

func TestRoundsVsT(t *testing.T) {
	tab, err := RoundsVsTSpec(24, []int{3, 4, 5}).RunSequential(1)
	if err != nil {
		t.Fatalf("RoundsVsT: %v", err)
	}
	// Paper gather radius is linear in t: strictly increasing. Measured
	// rounds have an instance-dependent flooding term on top of the
	// 2t+7 gather floor, so only the floor is asserted.
	prevPaper := -1
	for _, row := range tab.Rows {
		tt, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("bad cell %q", row[0])
		}
		paper, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		measured, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("bad cell %q", row[5])
		}
		if paper <= prevPaper {
			t.Errorf("paper gather radius not increasing: %v", tab.Rows)
		}
		if floor := 2*tt + 7; measured < floor {
			t.Errorf("t=%d: measured rounds %d below gather floor %d", tt, measured, floor)
		}
		prevPaper = paper
	}
}

func TestScaling(t *testing.T) {
	tab, err := ScalingSpec([]int{40, 500}).RunSequential(1)
	if err != nil {
		t.Fatalf("Scaling: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (ding + grid per size)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
		}
	}
	// Small rows have an exact OPT; the 22x22 grid is beyond every exact
	// solver and must degrade to the certified 2-packing bound.
	small, big := tab.Rows[2], tab.Rows[3]
	if small[0] != "grid-6x6" || small[3] == "-" {
		t.Errorf("small grid row should carry exact OPT: %v", small)
	}
	if big[0] != "grid-22x22" || big[3] != "-" || !strings.Contains(big[4], "certified") {
		t.Errorf("oversized grid row should carry the certified opt_lb bound: %v", big)
	}
}

func TestMessageFootprint(t *testing.T) {
	tab, err := MessageFootprintSpec(24).RunSequential(1)
	if err != nil {
		t.Fatalf("MessageFootprint: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// The full gather must ship at least as many words as D2's bounded
	// gather.
	d2Words, _ := strconv.Atoi(tab.Rows[0][4])
	fullWords, _ := strconv.Atoi(tab.Rows[2][4])
	if fullWords < d2Words {
		t.Errorf("full gather words %d < D2 words %d", fullWords, d2Words)
	}
}

func TestDensityTable(t *testing.T) {
	tab, err := DensityTableSpec(36).RunSequential(1)
	if err != nil {
		t.Fatalf("DensityTable: %v", err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
}

func TestBaselines(t *testing.T) {
	tab, err := BaselinesSpec([]int{40, 80}).RunSequential(1)
	if err != nil {
		t.Fatalf("Baselines: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Greedy phase count must not shrink as n grows on strip chains.
	p1, _ := strconv.Atoi(tab.Rows[0][2])
	p2, _ := strconv.Atoi(tab.Rows[1][2])
	if p2 < p1 {
		t.Errorf("greedy phases shrank: %d -> %d", p1, p2)
	}
}
