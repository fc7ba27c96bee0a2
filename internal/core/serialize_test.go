package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"localmds/internal/gen"
)

// TestAlg1ResultJSONRoundTrip: the result the mdsd service serves must
// survive encode/decode field for field (timings included — they are
// plain nanosecond integers on the wire).
func TestAlg1ResultJSONRoundTrip(t *testing.T) {
	g := gen.Grid(6, 6)
	res, err := Alg1CSR(g.Freeze(), PracticalParams(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Alg1Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, *res)
	}
	// Spot-check the wire names the service's clients rely on.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"s", "x", "i", "u", "active", "rounds_estimate", "stage_stats"} {
		if _, ok := wire[key]; !ok {
			t.Fatalf("wire form missing key %q: %s", key, data)
		}
	}
	stages, ok := wire["stage_stats"].([]any)
	if !ok || len(stages) != len(res.StageStats) {
		t.Fatalf("stage_stats wire form wrong: %s", data)
	}
	first, ok := stages[0].(map[string]any)
	if !ok {
		t.Fatalf("stage entry wire form wrong: %s", data)
	}
	for _, key := range []string{"name", "wall_ns", "allocs", "items", "unit"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("stage entry missing key %q: %s", key, data)
		}
	}
}

func TestParamsJSON(t *testing.T) {
	var p Params
	if err := json.Unmarshal([]byte(`{"r1":3,"r2":5,"max_brute_component":32}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.R1 != 3 || p.R2 != 5 || p.MaxBruteComponent != 32 {
		t.Fatalf("decoded %+v", p)
	}
}
