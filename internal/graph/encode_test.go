package graph

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	g := cycle(5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var h Graph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !g.Equal(&h) {
		t.Errorf("round trip lost data: %s vs %s", g, &h)
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"loop", `{"n":2,"edges":[[0,0]]}`},
		{"range", `{"n":2,"edges":[[0,5]]}`},
		{"dup", `{"n":3,"edges":[[0,1],[1,0]]}`},
		{"garbage", `{"n":`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tt.in)); err == nil {
				t.Errorf("ReadJSON(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestWriteReadJSON(t *testing.T) {
	g := complete(4)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	h, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !g.Equal(h) {
		t.Error("WriteJSON/ReadJSON round trip mismatch")
	}
}

func TestDOT(t *testing.T) {
	c := path(3).Freeze()
	dot := c.DOT("p3", []int{1})
	want := "graph p3 {\n  0;\n  1 [style=filled, fillcolor=gold];\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
	if dot != want {
		t.Errorf("DOT output:\n%s\nwant:\n%s", dot, want)
	}
	// Name sanitization.
	dot = c.DOT("my graph!", nil)
	if !strings.Contains(dot, "graph my_graph_ {") {
		t.Errorf("DOT name not sanitized:\n%s", dot)
	}
	if !strings.Contains(New(0).Freeze().DOT("", nil), "graph G {") {
		t.Error("empty DOT name should default to G")
	}
}

// Property: JSON round trip is the identity for random graphs.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 1
		g := randomGraph(n, 0.3, seed)
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var h Graph
		if err := json.Unmarshal(data, &h); err != nil {
			return false
		}
		return g.Equal(&h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
