// Package dzig holds the tests of the DZiG baseline as the public facade
// builds it: layph.NewDZiG, the sparsity-aware mode of package graphbolt
// under DZiG's system identity. The directory has no non-test code.
package dzig

import (
	"testing"

	"layph"
	"layph/internal/algo"
	"layph/internal/enginetest"
	"layph/internal/graph"
	"layph/internal/inc"
)

func factory(g *graph.Graph, a algo.Algorithm) inc.System { return layph.NewDZiG(g, a) }

func TestEquivalenceSumAlgorithms(t *testing.T) {
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "dzig/" + name, New: factory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestIdentity(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	e := layph.NewDZiG(g, algo.NewPageRank(0.85, 1e-8))
	if e.Name() != "dzig" {
		t.Fatalf("name = %q", e.Name())
	}
	if len(e.States()) != 2 {
		t.Fatal("states")
	}
}

func TestRejectsMonotonic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for BFS")
		}
	}()
	layph.NewDZiG(graph.New(1), algo.NewBFS(0))
}
