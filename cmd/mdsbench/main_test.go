package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// bench invokes run with small instance sizes so the smoke tests stay
// fast; the flags mirror the CI smoke invocation.
func bench(t *testing.T, extra ...string) string {
	t.Helper()
	var out strings.Builder
	args := append([]string{"-n", "40", "-process-n", "16"}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := bench(t, "-only", "table1", "-parallel", "1")
	for _, workers := range []string{"4", "16"} {
		par := bench(t, "-only", "table1", "-parallel", workers)
		if par != seq {
			t.Errorf("-parallel %s output differs from -parallel 1:\n%s\nvs\n%s", workers, par, seq)
		}
	}
}

func TestRootSeedChangesTables(t *testing.T) {
	a := bench(t, "-only", "spqr", "-seed", "1")
	b := bench(t, "-only", "spqr", "-seed", "99")
	if a == b {
		t.Error("different root seeds produced identical tables")
	}
}

func TestJSONOutputParses(t *testing.T) {
	out := bench(t, "-only", "table1", "-json")
	var doc struct {
		Results []struct {
			Name   string `json:"name"`
			NsOp   int64  `json:"ns_op"`
			Tables []struct {
				Title string `json:"title"`
				Rows  []struct {
					Name  string   `json:"name"`
					Cells []string `json:"cells"`
					Ratio *float64 `json:"ratio"`
				} `json:"rows"`
			} `json:"tables"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(doc.Results) != 1 || doc.Results[0].Name != "table1" {
		t.Fatalf("unexpected results: %+v", doc.Results)
	}
	rows := doc.Results[0].Tables[0].Rows
	if len(rows) != 13 {
		t.Errorf("table1 has %d rows, want 13", len(rows))
	}
	for _, row := range rows {
		if row.Ratio == nil {
			t.Errorf("row %q missing parsed ratio", row.Name)
		}
	}
}

func TestReplicatesAggregate(t *testing.T) {
	out := bench(t, "-only", "spqr", "-replicates", "3", "-parallel", "4")
	if !strings.Contains(out, "±") {
		t.Errorf("replicated run shows no aggregated cells:\n%s", out)
	}
	// Replication must not change the table shape: same row count as a
	// single-replicate run.
	single := bench(t, "-only", "spqr")
	if got, want := strings.Count(out, "\n"), strings.Count(single, "\n"); got != want {
		t.Errorf("replicated table has %d lines, single-replicate has %d", got, want)
	}
}

func TestInvalidFlagsError(t *testing.T) {
	cases := [][]string{
		{"-n", "4"},          // below the lemma-sweep floor
		{"-process-n", "0"},  // empty simulator instances
		{"-replicates", "0"}, // no replicates
		{"-parallel", "-2"},  // negative pool
		{"-only", "nosuch"},  // unknown group
		{"-only", "stages"},  // no such group: mdsrun -stages prints stage times
		{"-rootseed", "5"},   // not a flag: -seed is the root seed
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
