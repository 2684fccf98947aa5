package inc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// graphSucc walks the graph's current out-rows.
func graphSucc(g *graph.Graph) Succ {
	return func(v graph.VertexID, visit func(graph.VertexID)) {
		for _, e := range g.Out(v) {
			visit(e.To)
		}
	}
}

// closure is the reference ⊥ set: the roots Trim derives from the batch
// and extra, grown through a parent→children map of the pre-batch forest.
func closure(parent []graph.VertexID, applied *delta.Applied, extra []graph.VertexID) []graph.VertexID {
	children := map[graph.VertexID][]graph.VertexID{}
	for c, p := range parent {
		if p != engine.NoParent {
			children[p] = append(children[p], graph.VertexID(c))
		}
	}
	seen := map[graph.VertexID]bool{}
	var queue []graph.VertexID
	add := func(v graph.VertexID) {
		if !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for _, e := range applied.RemovedEdges {
		if parent[e.To] == e.From {
			add(e.To)
		}
	}
	for _, v := range applied.RemovedVertices {
		add(v)
	}
	for _, v := range extra {
		add(v)
	}
	for i := 0; i < len(queue); i++ {
		for _, c := range children[queue[i]] {
			add(c)
		}
	}
	slices.Sort(queue)
	return queue
}

// TestTrimRowWalkIsForestClosure pins that walking out-rows for children
// tags exactly the dependency-forest closure: on random graphs whose
// parents are in-neighbours (or roots), after random edge and vertex
// removals and with random extra roots.
func TestTrimRowWalkIsForestClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(80)
		g := graph.New(n)
		for e := 0; e < n*3; e++ {
			if u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)); u != v {
				g.AddEdge(u, v, 1)
			}
		}
		// An acyclic forest over in-neighbours: v's parent ranks before it.
		rank := rng.Perm(n)
		parent := make([]graph.VertexID, n)
		x := make([]float64, n)
		for v := range parent {
			parent[v] = engine.NoParent
			x[v] = float64(rank[v])
			if rng.Intn(6) == 0 {
				continue // a root
			}
			var cands []graph.VertexID
			for _, ie := range g.In(graph.VertexID(v)) {
				if rank[ie.To] < rank[v] {
					cands = append(cands, ie.To)
				}
			}
			if len(cands) > 0 {
				parent[v] = cands[rng.Intn(len(cands))]
			}
		}
		var b delta.Batch
		for j := 0; j < rng.Intn(6); j++ {
			u := graph.VertexID(rng.Intn(n))
			if out := g.Out(u); len(out) > 0 {
				b = append(b, delta.Update{Kind: delta.DelEdge, U: u, V: out[rng.Intn(len(out))].To})
			}
		}
		for j := 0; j < rng.Intn(3); j++ {
			b = append(b, delta.Update{Kind: delta.DelVertex, U: graph.VertexID(rng.Intn(n))})
		}
		var extra []graph.VertexID
		for j := 0; j < rng.Intn(3); j++ {
			extra = append(extra, graph.VertexID(rng.Intn(n)))
		}
		pre := slices.Clone(parent)
		applied := delta.Apply(g, b)
		want := closure(pre, applied, extra)

		var tr Trimmer
		tr.Trim(x, parent, math.Inf(1), applied, extra, graphSucc(g))
		got := slices.Sorted(slices.Values(tr.Tagged.List))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: tagged %v, want %v", trial, got, want)
		}
		for _, v := range got {
			if !math.IsInf(x[v], 1) || parent[v] != engine.NoParent {
				t.Fatalf("trial %d: %d not reset", trial, v)
			}
		}
	}
}

// TestTrimRemovedVertexChildren pins that the children of a removed vertex,
// whose row is empty after the batch, are reached through the removed
// edges the batch lists, and their own subtrees through the rows.
func TestTrimRemovedVertexChildren(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, with 1 also feeding 4; 1 is removed.
	g := graph.New(5)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {1, 4}} {
		g.AddEdge(e[0], e[1], 1)
	}
	parent := []graph.VertexID{engine.NoParent, 0, 1, 2, 1}
	x := []float64{0, 1, 2, 3, 2}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.DelVertex, U: 1}})
	if len(g.Out(1)) != 0 {
		t.Fatal("removed vertex kept its row")
	}
	var tr Trimmer
	tr.Trim(x, parent, math.Inf(1), applied, nil, graphSucc(g))
	got := slices.Sorted(slices.Values(tr.Tagged.List))
	if want := []graph.VertexID{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("tagged %v, want %v", got, want)
	}
}
