package core

import (
	"math/rand"
	"reflect"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// maxFuzzN bounds the fuzzed graphs: large enough for several residual
// components, small enough for the spec oracle and the simulator.
const maxFuzzN = 24

// fuzzGraph decodes fuzz bytes into a graph: the first byte picks n in
// 1..maxFuzzN, each following byte pair is an edge (self-loops dropped,
// duplicates collapsed by the CSR build).
func fuzzGraph(data []byte) *graph.CSR {
	if len(data) == 0 {
		return graph.CSRFromEdges(1, nil)
	}
	n := 1 + int(data[0])%maxFuzzN
	var edges [][2]int
	for i := 1; i+1 < len(data); i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.CSRFromEdges(n, edges)
}

// encodeFuzzGraph is fuzzGraph's inverse for graphs of at most maxFuzzN
// vertices.
func encodeFuzzGraph(g *graph.Graph) []byte {
	data := []byte{byte(g.N() - 1)}
	g.VisitEdges(func(u, v int) { data = append(data, byte(u), byte(v)) })
	return data
}

// withoutTimings zeroes the StageStats fields that measure the run
// rather than the answer.
func withoutTimings(ss StageStats) StageStats {
	out := make(StageStats, len(ss))
	for i, s := range ss {
		s.Wall, s.Allocs = 0, 0
		out[i] = s
	}
	return out
}

// FuzzAlg1 differentially fuzzes Algorithm 1 on small graphs: the
// centralized driver at 1 and 3 workers, the spec oracle Alg1Sequential,
// and the LOCAL process RunAlg1, whose run shares one component-solve
// memo among its processes; then the vertex-cover variant the same way.
// Radii range past the diameter, so saturated balls are covered too.
func FuzzAlg1(f *testing.F) {
	strip, err := ding.NewStrip(6)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), uint8(2), int64(1), encodeFuzzGraph(gen.Cycle(7)))
	f.Add(uint8(2), uint8(1), int64(2), encodeFuzzGraph(gen.Grid(4, 4)))
	f.Add(uint8(2), uint8(2), int64(3), encodeFuzzGraph(strip.G))
	f.Fuzz(func(t *testing.T, r1, r2 uint8, seed int64, data []byte) {
		c := fuzzGraph(data)
		p := Params{R1: 1 + int(r1)%6, R2: 2 + int(r2)%5}
		ids := rand.New(rand.NewSource(seed)).Perm(c.N())

		one, err := Alg1CSR(c, p, PipelineOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		three, err := Alg1CSR(c, p, PipelineOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		one.StageStats, three.StageStats = withoutTimings(one.StageStats), withoutTimings(three.StageStats)
		if !reflect.DeepEqual(one, three) {
			t.Fatalf("%+v: Alg1CSR at 1 worker %+v, at 3 workers %+v", p, one, three)
		}
		spec, err := Alg1Sequential(graph.FromCSR(c), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []struct {
			name      string
			got, want []int
		}{{"X", one.X, spec.X}, {"I", one.I, spec.I}, {"U", one.U, spec.U}, {"S", one.S, spec.S}} {
			if !graph.EqualSets(set.got, set.want) {
				t.Fatalf("%+v: Alg1CSR %s = %v, Alg1Sequential %v", p, set.name, set.got, set.want)
			}
		}
		got, _, err := RunAlg1(c, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.EqualSets(got, one.S) || !mds.IsDominatingSetCSR(c, got) {
			t.Fatalf("%+v: RunAlg1 %v, Alg1CSR %v", p, got, one.S)
		}
		if got, _, err = RunAlg1(c, ids, p); err != nil {
			t.Fatal(err)
		} else if !mds.IsDominatingSetCSR(c, got) {
			t.Fatalf("%+v ids %v: RunAlg1 %v does not dominate", p, ids, got)
		}

		mvcOne, err := MVCAlg1(c, p, PipelineOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		mvcThree, err := MVCAlg1(c, p, PipelineOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		mvcOne.StageStats, mvcThree.StageStats = withoutTimings(mvcOne.StageStats), withoutTimings(mvcThree.StageStats)
		if !reflect.DeepEqual(mvcOne, mvcThree) {
			t.Fatalf("%+v: MVCAlg1 at 1 worker %+v, at 3 workers %+v", p, mvcOne, mvcThree)
		}
		got, _, err = RunMVCAlg1(c, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.EqualSets(got, mvcOne.S) || !mds.IsVertexCover(c, got) {
			t.Fatalf("%+v: RunMVCAlg1 %v, MVCAlg1 %v", p, got, mvcOne.S)
		}
		if got, _, err = RunMVCAlg1(c, ids, p); err != nil {
			t.Fatal(err)
		} else if !mds.IsVertexCover(c, got) {
			t.Fatalf("%+v ids %v: RunMVCAlg1 %v is not a cover", p, ids, got)
		}
	})
}
