package core

import (
	"fmt"
	"math/rand"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
)

// allocWorkload builds a community graph plus a pair of inverse batches:
// addB inserts fresh edges, delB removes exactly those edges. Applying
// add+update then del+update returns the graph to its original edge set,
// so the cycle can repeat indefinitely — a steady-state incremental
// workload with no drift in graph size.
func allocWorkload(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch) {
	g := allocGraph(vertices)
	addB := make(delta.Batch, 0, batch)
	delB := make(delta.Batch, 0, batch)
	// Deterministic fresh edges: stride enumeration. Every (u, u+d) pair
	// with a fixed stride d is distinct across strides, so pairs never
	// repeat and the scan terminates as soon as `batch` non-edges are
	// found. Large strides cross community boundaries.
	n := graph.VertexID(vertices)
outer:
	for d := n / 3; d > 0; d-- {
		for u := graph.VertexID(0); u < n; u++ {
			v := (u + d) % n
			if _, ok := g.HasEdge(u, v); ok {
				continue
			}
			w := 1 + float64((u+v)%5)
			addB = append(addB, delta.Update{Kind: delta.AddEdge, U: u, V: v, W: w})
			delB = append(delB, delta.Update{Kind: delta.DelEdge, U: u, V: v})
			if len(addB) == batch {
				break outer
			}
		}
	}
	return g, addB, delB
}

func allocGraph(vertices int) *graph.Graph {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices:      vertices,
		MeanCommunity: 40,
		IntraDegree:   8,
		InterDegree:   0.3,
		Weighted:      true,
		Seed:          7,
	})
	return g
}

// spreadWorkload is allocWorkload with uniformly random endpoints: nearly
// every added edge crosses communities, so the cycle flips roles in most of
// the subgraphs it enters.
func spreadWorkload(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch) {
	g := allocGraph(vertices)
	var addB, delB delta.Batch
	rng := rand.New(rand.NewSource(11))
	seen := map[[2]graph.VertexID]bool{}
	for len(addB) < batch {
		u, v := graph.VertexID(rng.Intn(vertices)), graph.VertexID(rng.Intn(vertices))
		if _, ok := g.HasEdge(u, v); ok || u == v || seen[[2]graph.VertexID{u, v}] {
			continue
		}
		seen[[2]graph.VertexID{u, v}] = true
		addB = append(addB, delta.Update{Kind: delta.AddEdge, U: u, V: v, W: 1 + 9*rng.Float64()})
		delB = append(delB, delta.Update{Kind: delta.DelEdge, U: u, V: v})
	}
	return g, addB, delB
}

// cycleOnce applies the add batch, updates, applies the inverse delete
// batch, and updates again — one steady-state round trip.
func cycleOnce(l *Layph, g *graph.Graph, addB, delB delta.Batch) {
	l.Update(delta.Apply(g, addB))
	l.Update(delta.Apply(g, delB))
}

// steadyStateAllocs measures the allocation count of one warm add+del
// update cycle on a community graph with `vertices` vertices.
func steadyStateAllocs(a algo.Algorithm, vertices, batch int) float64 {
	g, addB, delB := allocWorkload(vertices, batch)
	l := New(g, a, Options{Workers: 1})
	// Warm the scratch buffers: the first cycles grow vsets, O(n)
	// vectors, and proxy capacity to their steady size.
	for i := 0; i < 3; i++ {
		cycleOnce(l, g, addB, delB)
	}
	return testing.AllocsPerRun(5, func() {
		cycleOnce(l, g, addB, delB)
	})
}

// TestUpdateSteadyStateAllocs asserts that a warm incremental batch
// performs no per-vertex (O(n)) allocations: the hot path keeps engine
// state on dense vectors and reuses epoch-stamped scratch sets across
// Update calls, so its allocations scale with the touched footprint of
// the batch, not with graph size. The check runs the same fixed batch on
// a graph 4x larger and requires the allocation count to stay within 2x
// — any reintroduced per-vertex map or per-update O(n) buffer makes the
// big-graph run allocate ~4x and fails loudly.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow in -short CI lanes")
	}
	const (
		small = 4000
		big   = 4 * small
		batch = 200
	)
	for _, tc := range []struct {
		name string
		mk   func() algo.Algorithm
	}{
		{"SSSP", func() algo.Algorithm { return algo.NewSSSP(0) }},
		{"PageRank", func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := steadyStateAllocs(tc.mk(), small, batch)
			ab := steadyStateAllocs(tc.mk(), big, batch)
			t.Logf("%s: %.0f allocs/cycle at %d vertices, %.0f at %d (ratio %.2f)",
				tc.name, at, small, ab, big, ab/at)
			if ab > 2*at+1000 {
				t.Fatalf("allocations scale with graph size (%.0f at n=%d vs %.0f at n=%d): steady-state hot path regressed to per-vertex allocation",
					ab, big, at, small)
			}
		})
	}
}

// BenchmarkUpdate measures the incremental-update hot path end to end
// (apply inverse batches + Update) with allocation reporting; run with
// -benchmem to track bytes/op and allocs/op across layout changes:
//
//	go test ./internal/core -bench BenchmarkUpdate -benchmem
//
// The spread cases draw uniformly random endpoints, so most batches flip
// roles across the subgraphs they enter. The CC case runs the zero-weight
// label ties through the shortcut-mapped dependency parents.
func BenchmarkUpdate(b *testing.B) {
	for _, name := range []string{"SSSP", "PageRank", "CC"} {
		run := func(label string, workload func(vertices, batch int) (*graph.Graph, delta.Batch, delta.Batch), batch int) {
			b.Run(fmt.Sprintf("%s/%sbatch=%d", name, label, batch), func(b *testing.B) {
				g, addB, delB := workload(8000, batch)
				var a algo.Algorithm
				switch name {
				case "SSSP":
					a = algo.NewSSSP(0)
				case "PageRank":
					a = algo.NewPageRank(0.85, 1e-6)
				default:
					a = algo.NewCC()
				}
				l := New(g, a, Options{Workers: 1})
				cycleOnce(l, g, addB, delB) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycleOnce(l, g, addB, delB)
				}
			})
		}
		if name == "CC" {
			run("", allocWorkload, 1000)
			continue
		}
		for _, batch := range []int{100, 1000} {
			run("", allocWorkload, batch)
		}
		run("spread/", spreadWorkload, 1000)
	}
}
