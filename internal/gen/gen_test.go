package gen

import (
	"testing"

	"layph/internal/graph"
)

func TestCommunityGraphDeterministic(t *testing.T) {
	cfg := CommunityConfig{Vertices: 500, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.3, Seed: 42, Weighted: true}
	g1, c1 := CommunityGraph(cfg)
	g2, c2 := CommunityGraph(cfg)
	if g1.NumEdges() != g2.NumEdges() || g1.NumVertices() != g2.NumVertices() {
		t.Fatalf("nondeterministic sizes: %d/%d vs %d/%d", g1.NumVertices(), g1.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	g1.Edges(func(u, v graph.VertexID, w float64) {
		if got, ok := g2.HasEdge(u, v); !ok || got != w {
			t.Fatalf("edge (%d,%d,%v) differs across runs", u, v, w)
		}
	})
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("community assignment differs at %d", i)
		}
	}
}

func TestCommunityGraphStructure(t *testing.T) {
	g, comm := CommunityGraph(CommunityConfig{Vertices: 1000, MeanCommunity: 30, IntraDegree: 8, InterDegree: 0.2, Seed: 7})
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	intra, inter := 0, 0
	g.Edges(func(u, v graph.VertexID, w float64) {
		if comm[u] == comm[v] {
			intra++
		} else {
			inter++
		}
	})
	if intra == 0 || inter == 0 {
		t.Fatalf("degenerate mix: intra=%d inter=%d", intra, inter)
	}
	if intra < 5*inter {
		t.Fatalf("communities not dense: intra=%d inter=%d", intra, inter)
	}
	// Every planted community is weakly connected via the generator's ring.
	for i := 1; i < len(comm); i++ {
		if comm[i] < comm[i-1] {
			t.Fatal("community ids not contiguous-ascending")
		}
	}
}

func TestCommunityGraphUnweighted(t *testing.T) {
	g, _ := CommunityGraph(CommunityConfig{Vertices: 200, MeanCommunity: 20, IntraDegree: 4, InterDegree: 0.2, Seed: 3})
	g.Edges(func(u, v graph.VertexID, w float64) {
		if w != 1 {
			t.Fatalf("unweighted graph has weight %v", w)
		}
	})
}

func TestPresets(t *testing.T) {
	for _, p := range AllPresets {
		g := Build(p, 0.02)
		if g.NumVertices() < 64 {
			t.Fatalf("%s: too small (%d)", p, g.NumVertices())
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", p)
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

func TestPresetScaleFloor(t *testing.T) {
	g := Build(PresetUK, 0.00001)
	if g.NumVertices() < 64 {
		t.Fatalf("scale floor not applied: %d", g.NumVertices())
	}
}

func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PresetConfig(Preset("nope"), 1)
}
