package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"localmds/internal/experiments"
)

// countingSpec returns a spec whose tasks record how often they ran and
// emit cells derived from their seed, so output differences across worker
// counts are visible.
func countingSpec(name string, tasks int, runs *atomic.Int64) experiments.Spec {
	s := experiments.Spec{Name: name, Title: name, Header: []string{"row", "seed"}}
	for i := 0; i < tasks; i++ {
		row := fmt.Sprintf("task%d", i)
		s.Tasks = append(s.Tasks, experiments.Task{Row: row, Run: func(seed int64) ([][]string, error) {
			runs.Add(1)
			return [][]string{{row, fmt.Sprint(seed % 1000)}}, nil
		}})
	}
	return s
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var runs atomic.Int64
	specs := func() []experiments.Spec {
		return []experiments.Spec{
			countingSpec("alpha", 7, &runs),
			countingSpec("beta", 5, &runs),
		}
	}
	var rendered []string
	for _, workers := range []int{1, 4, 16} {
		tabs, err := New(Options{Workers: workers, RootSeed: 42}).Run(specs())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.Render())
		}
		rendered = append(rendered, b.String())
	}
	if rendered[0] != rendered[1] || rendered[1] != rendered[2] {
		t.Errorf("output varies with worker count:\n%s\nvs\n%s", rendered[0], rendered[1])
	}
}

func TestRunMatchesRunSequential(t *testing.T) {
	var runs atomic.Int64
	spec := countingSpec("gamma", 6, &runs)
	want, err := spec.RunSequential(7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Options{Workers: 8, RootSeed: 7}).Run([]experiments.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("parallel table differs from sequential:\n%s\nvs\n%s", got[0].Render(), want.Render())
	}
}

func TestRunRealSpecsMatchSequential(t *testing.T) {
	specs := []experiments.Spec{
		experiments.CycleLocalCutsSpec([]int{12, 30}, 3),
		experiments.DensityTableSpec(24),
	}
	r := New(Options{Workers: 8, RootSeed: 5})
	got, err := r.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := spec.RunSequential(5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: parallel differs from sequential:\n%s\nvs\n%s",
				spec.Name, got[i].Render(), want.Render())
		}
	}
}

func TestReplicateAggregation(t *testing.T) {
	spec := experiments.Spec{Name: "rep", Header: []string{"const", "varies", "nonnum"}}
	seeds := []int64{}
	spec.Tasks = append(spec.Tasks, experiments.Task{Row: "r", Run: func(seed int64) ([][]string, error) {
		seeds = append(seeds, seed)
		v := len(seeds) * 10 // 10, 20, 30 across replicates
		nn := "yes"
		if len(seeds) == 2 {
			nn = "no"
		}
		return [][]string{{"fixed", fmt.Sprint(v), nn}}, nil
	}})
	tabs, err := New(Options{Workers: 1, Replicates: 3, RootSeed: 9}).Run([]experiments.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	row := tabs[0].Rows[0]
	if row[0] != "fixed" {
		t.Errorf("constant cell rewritten: %q", row[0])
	}
	if row[1] != "20 ±10 [10..30]" {
		t.Errorf("aggregated cell = %q, want \"20 ±10 [10..30]\"", row[1])
	}
	if row[2] != "yes ⟨2/3⟩" {
		t.Errorf("divergent non-numeric cell = %q", row[2])
	}
	// All three replicate seeds must be distinct.
	if seeds[0] == seeds[1] || seeds[1] == seeds[2] || seeds[0] == seeds[2] {
		t.Errorf("replicate seeds not distinct: %v", seeds)
	}
}

func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	spec := experiments.Spec{Name: "bad", Header: []string{"x"}}
	spec.Tasks = append(spec.Tasks, experiments.Task{Row: "ok", Run: func(int64) ([][]string, error) {
		return [][]string{{"1"}}, nil
	}})
	spec.Tasks = append(spec.Tasks, experiments.Task{Row: "fails", Run: func(int64) ([][]string, error) {
		return nil, sentinel
	}})
	_, err := New(Options{Workers: 4, RootSeed: 1}).Run([]experiments.Spec{spec})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "bad/fails") {
		t.Errorf("error lacks spec/task context: %v", err)
	}
}

func TestAggregateCell(t *testing.T) {
	cases := []struct {
		vals []string
		want string
	}{
		{[]string{"3", "3", "3"}, "3"},
		{[]string{"1.00 (10/10)", "1.50 (15/10)"}, "1.25 ±0.3536 [1..1.5]"},
		{[]string{"true", "false", "true"}, "true ⟨2/3⟩"},
		{[]string{"<=14 est", "<=16 est"}, "15 ±1.414 [14..16]"},
	}
	for _, c := range cases {
		if got := aggregateCell(c.vals); got != c.want {
			t.Errorf("aggregateCell(%v) = %q, want %q", c.vals, got, c.want)
		}
	}
}

func TestFailureAbortsRemainingWork(t *testing.T) {
	// Once a task fails the sweep is doomed; queued jobs must be skipped
	// instead of burning the rest of the suite's wall-clock. One worker
	// makes the processing order (and hence the assertion) deterministic.
	var runs atomic.Int64
	spec := experiments.Spec{Name: "doomed", Header: []string{"x"}}
	spec.Tasks = append(spec.Tasks, experiments.Task{Row: "fails", Run: func(int64) ([][]string, error) {
		return nil, errors.New("boom")
	}})
	for i := 0; i < 5; i++ {
		spec.Tasks = append(spec.Tasks, experiments.Task{Row: fmt.Sprintf("later%d", i), Run: func(int64) ([][]string, error) {
			runs.Add(1)
			return [][]string{{"1"}}, nil
		}})
	}
	if _, err := New(Options{Workers: 1, RootSeed: 1}).Run([]experiments.Spec{spec}); err == nil {
		t.Fatal("doomed sweep succeeded")
	}
	if runs.Load() != 0 {
		t.Errorf("%d tasks ran after the failure, want 0", runs.Load())
	}
}
