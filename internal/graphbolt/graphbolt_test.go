package graphbolt

import (
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/enginetest"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

func pullFactory(g *graph.Graph, a algo.Algorithm) inc.System { return New(g, a, ModePull) }
func sparseFactory(g *graph.Graph, a algo.Algorithm) inc.System {
	return New(g, a, ModeSparseAware)
}

func TestEquivalenceSumAlgorithmsPull(t *testing.T) {
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "graphbolt/" + name, New: pullFactory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceSumAlgorithmsSparse(t *testing.T) {
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "dzig/" + name, New: sparseFactory}}, mk, enginetest.EquivalenceConfig())
		})
	}
}

func TestEquivalenceWithVertexUpdates(t *testing.T) {
	cfg := enginetest.EquivalenceConfig()
	cfg.AddVertices, cfg.DelVertices = 3, 3
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run("pull/"+name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "graphbolt/" + name, New: pullFactory}}, mk, cfg)
		})
		t.Run("sparse/"+name, func(t *testing.T) {
			enginetest.RunDifferential(t, []enginetest.NamedFactory{{Name: "dzig/" + name, New: sparseFactory}}, mk, cfg)
		})
	}
}

func TestRejectsMonotonic(t *testing.T) {
	for _, mode := range []Mode{ModePull, ModeSparseAware} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mode %v: expected panic for SSSP", mode)
				}
			}()
			New(graph.New(1), algo.NewSSSP(0), mode)
		}()
	}
}

func TestNames(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	if New(g, algo.NewPageRank(0.85, 1e-8), ModePull).Name() != "graphbolt" {
		t.Fatal("pull name")
	}
	if New(g, algo.NewPageRank(0.85, 1e-8), ModeSparseAware).Name() != "dzig" {
		t.Fatal("sparse name")
	}
}

func TestBatchMatchesAsyncEngine(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 300, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4, Seed: 4,
	})
	a := algo.NewPageRank(0.85, 1e-10)
	e := New(g, a, ModePull)
	want := engine.RunBatch(g, a, engine.Options{})
	if !algo.StatesClose(e.States(), want.X, 1e-6) {
		t.Fatalf("sync batch diverges from async engine: %v", algo.MaxStateDiff(e.States(), want.X))
	}
}

func TestSparseAwareFewerActivations(t *testing.T) {
	// DZiG's defining property: on a small delta its sparsity-aware
	// refinement activates far fewer edges than pull-based GraphBolt.
	mk := func() (*graph.Graph, *delta.Applied, algo.Algorithm) {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 600, MeanCommunity: 30, IntraDegree: 7, InterDegree: 0.4, Seed: 17,
		})
		a := algo.NewPageRank(0.85, 1e-8)
		return g, nil, a
	}
	gPull, _, aPull := mk()
	pull := New(gPull, aPull, ModePull)
	appliedPull := delta.Apply(gPull, delta.NewGenerator(3).EdgeBatch(gPull, 10, false))
	stPull := pull.Update(appliedPull)

	gSparse, _, aSparse := mk()
	sparse := New(gSparse, aSparse, ModeSparseAware)
	appliedSparse := delta.Apply(gSparse, delta.NewGenerator(3).EdgeBatch(gSparse, 10, false))
	stSparse := sparse.Update(appliedSparse)

	if stSparse.Activations >= stPull.Activations {
		t.Fatalf("dzig activations %d >= graphbolt %d on a 10-edge delta",
			stSparse.Activations, stPull.Activations)
	}
	if !algo.StatesClose(pull.States(), sparse.States(), 1e-6) {
		t.Fatalf("modes diverge: %v", algo.MaxStateDiff(pull.States(), sparse.States()))
	}
}

func TestRepeatedBatchesStayAccurate(t *testing.T) {
	// Error must not accumulate across many refinement rounds.
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 300, MeanCommunity: 25, IntraDegree: 5, InterDegree: 0.4, Weighted: true, Seed: 23,
	})
	a := algo.NewPHP(0, 0.8, 1e-10)
	e := New(g, a, ModeSparseAware)
	genr := delta.NewGenerator(7)
	for i := 0; i < 8; i++ {
		applied := delta.Apply(g, genr.EdgeBatch(g, 30, true))
		e.Update(applied)
	}
	want := engine.RunBatch(g, algo.NewPHP(0, 0.8, 1e-10), engine.Options{})
	if !algo.StatesClose(e.States(), want.X, 1e-6) {
		t.Fatalf("drift after 8 batches: %v", algo.MaxStateDiff(e.States(), want.X))
	}
}
