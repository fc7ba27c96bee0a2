package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "long-column"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	out := tab.Render()
	for _, want := range []string{"## demo", "| a  ", "| long-column |", "| 333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderAlignsMultibyteCells(t *testing.T) {
	// Aggregated cells carry multi-byte runes (±, ⟨⟩); every rendered line
	// must still have the same display width (rune count).
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1.5 ±0.5 [1..2]", "x"}, {"2", "true ⟨2/3⟩"}}}
	lines := strings.Split(strings.TrimRight(tab.Render(), "\n"), "\n")
	want := len([]rune(lines[0]))
	for _, line := range lines[1:] {
		if got := len([]rune(line)); got != want {
			t.Errorf("line %q is %d runes wide, want %d", line, got, want)
		}
	}
}

func TestLeadingFloat(t *testing.T) {
	cases := []struct {
		cell string
		f    float64
		ok   bool
	}{
		{"1.23 (37/30)", 1.23, true},
		{"<=14 est", 14, true},
		{"7", 7, true},
		{"n/a", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		f, ok := LeadingFloat(c.cell)
		if f != c.f || ok != c.ok {
			t.Errorf("LeadingFloat(%q) = %v, %v; want %v, %v", c.cell, f, ok, c.f, c.ok)
		}
	}
}

func TestRatioString(t *testing.T) {
	if got := ratioString(6, 3); got != "2.00 (6/3)" {
		t.Errorf("ratioString = %q", got)
	}
	if got := ratioString(1, 0); got != "n/a" {
		t.Errorf("ratioString zero-opt = %q", got)
	}
}

func TestTable1Small(t *testing.T) {
	cfg := Table1Config{N: 40, ProcessN: 16}
	tab, err := Table1Spec(cfg).RunSequential(1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	// trees, outerplanar, planar, K1t, 4x2 K2t rows, Kt = 13 rows.
	if len(tab.Rows) != 13 {
		t.Errorf("Table1 has %d rows, want 13:\n%s", len(tab.Rows), tab.Render())
	}
	// Every measured ratio cell parses as "x.xx (a/b)" with x below the
	// paper's constants; spot check no "n/a".
	for _, row := range tab.Rows {
		if row[4] == "n/a" {
			t.Errorf("row %v has no measured ratio", row)
		}
	}
}

func TestMVCTableSmall(t *testing.T) {
	cfg := Table1Config{N: 40, ProcessN: 16}
	tab, err := MVCTableSpec(cfg).RunSequential(1)
	if err != nil {
		t.Fatalf("MVCTable: %v", err)
	}
	if len(tab.Rows) != 7 {
		t.Errorf("MVCTable has %d rows, want 7", len(tab.Rows))
	}
}

func TestProposition31Small(t *testing.T) {
	cfg := Table1Config{N: 36, ProcessN: 16}
	tab, err := Proposition31Spec(cfg).RunSequential(1)
	if err != nil {
		t.Fatalf("Proposition31: %v", err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("Lemma 5.2 bound violated in row %v", row)
		}
	}
}

func TestLemma32Small(t *testing.T) {
	tab, err := Lemma32Spec([]int{24, 48}, 3).RunSequential(1)
	if err != nil {
		t.Fatalf("Lemma32: %v", err)
	}
	if len(tab.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("Lemma 3.2 bound violated in row %v", row)
		}
	}
}

func TestLemma33Small(t *testing.T) {
	tab, err := Lemma33Spec([]int{20, 30}, 3).RunSequential(1)
	if err != nil {
		t.Fatalf("Lemma33: %v", err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("Lemma 3.3 bound violated in row %v", row)
		}
	}
}

func TestLemma42Small(t *testing.T) {
	tab, err := Lemma42Spec([]int{40, 80}).RunSequential(1)
	if err != nil {
		t.Fatalf("Lemma42: %v", err)
	}
	if len(tab.Rows) != 6 { // 2 sizes x 3 radii
		t.Errorf("rows = %d, want 6", len(tab.Rows))
	}
}

func TestLemma518Small(t *testing.T) {
	tab, err := Lemma518Spec([]int{30, 40}, 5).RunSequential(1)
	if err != nil {
		t.Fatalf("Lemma518: %v", err)
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Errorf("Lemma 5.18 bound violated in row %v", row)
		}
	}
}

func TestCycleLocalCutsTable(t *testing.T) {
	tab, err := CycleLocalCutsSpec([]int{30, 60}, 3).RunSequential(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] != row[0] {
			t.Errorf("cycle row %v: all vertices should be local 1-cuts", row)
		}
		if row[2] != "0" {
			t.Errorf("cycle row %v: no global cut vertices expected", row)
		}
	}
}

func TestSPQRStatsSmall(t *testing.T) {
	tab, err := SPQRStatsSpec([]int{12, 16}).RunSequential(1)
	if err != nil {
		t.Fatalf("SPQRStats: %v", err)
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Errorf("Prop 5.7 coverage failed in row %v", row)
		}
	}
}
