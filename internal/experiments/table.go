// Package experiments contains the evaluation harness: workload
// definitions, measurement runners and table renderers that regenerate the
// paper's Table 1 and quantify every numbered lemma/theorem claim
// (Lemmas 3.2, 3.3, 4.2, 5.17/5.18, Proposition 3.1/5.7/5.8, Theorems 4.1
// and 4.4). cmd/mdsbench prints the tables; bench_test.go wraps the same
// runners in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a rendered experiment result: a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cells beyond the header length are rejected at
// render time.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table with aligned columns. Widths are measured in
// runes, not bytes: aggregated cells carry multi-byte glyphs (±, ⟨⟩)
// that would otherwise misalign their column.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && utf8.RuneCountInString(c) > widths[i] {
				widths[i] = utf8.RuneCountInString(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "| %s%s ", c, strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteString("|\n")
	}
	writeRow(t.Header)
	for i := range widths {
		fmt.Fprintf(&b, "|%s", strings.Repeat("-", widths[i]+2))
	}
	b.WriteString("|\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// ratioString formats a solution-size / optimum pair.
func ratioString(sol, opt int) string {
	if opt == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f (%d/%d)", float64(sol)/float64(opt), sol, opt)
}

// LeadingFloat extracts the first number from a cell like "1.23 (37/30)"
// or "<=14 est"; ok is false when the cell has none. Both the replicate
// aggregation (internal/runner) and cmd/mdsbench's JSON metric parsing
// use this one definition so the two can never drift.
func LeadingFloat(cell string) (f float64, ok bool) {
	start := -1
	for i, r := range cell {
		if r >= '0' && r <= '9' {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, false
	}
	end := start
	for end < len(cell) && (cell[end] >= '0' && cell[end] <= '9' || cell[end] == '.') {
		end++
	}
	f, err := strconv.ParseFloat(cell[start:end], 64)
	if err != nil {
		return 0, false
	}
	return f, true
}
