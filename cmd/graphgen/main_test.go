package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localmds/internal/graphio"
)

func TestGenerateJSONRoundTrip(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "cycle", "-n", "12"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := graphio.Read(strings.NewReader(out.String()), graphio.FormatJSON)
	if err != nil {
		t.Fatalf("reading the generated JSON: %v", err)
	}
	if g.N() != 12 || g.M() != 12 {
		t.Errorf("cycle n=12 decoded as n=%d m=%d", g.N(), g.M())
	}
}

func TestGenerateSeededDeterminism(t *testing.T) {
	gen := func() string {
		var out strings.Builder
		if err := run([]string{"-kind", "tree", "-n", "30", "-seed", "7"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if gen() != gen() {
		t.Error("same seed produced different graphs")
	}
}

func TestGenerateDOT(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "grid", "-n", "9", "-format", "dot"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "graph ") {
		t.Errorf("DOT output does not start with a graph header: %q", out.String()[:20])
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	var out strings.Builder
	if err := run([]string{"-kind", "cactus", "-n", "20", "-o", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("output file: %v", err)
	}
	defer f.Close()
	if _, err := graphio.Read(f, graphio.FormatJSON); err != nil {
		t.Errorf("output file does not decode: %v", err)
	}
}

func TestInvalidInputsErrorCleanly(t *testing.T) {
	cases := [][]string{
		{"-n", "-5"},                           // negative size, any kind
		{"-kind", "tree", "-n", "0"},           // zero size
		{"-kind", "cycle", "-n", "2"},          // below the generator's minimum (panics in gen)
		{"-kind", "ding", "-t", "2"},           // invalid K_{2,t} parameter
		{"-kind", "gnp", "-p", "1.5"},          // not a probability
		{"-kind", "nosuch"},                    // unknown generator
		{"-format", "yaml", "-n", "10"},        // unknown format
		{"-kind", "cliquependants", "-n", "2"}, // q = 1 < 2 (panics in gen)
	}
	for _, args := range cases {
		var out strings.Builder
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run(%v) panicked: %v", args, r)
				}
			}()
			return run(args, &out)
		}()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
