package graph_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"layph/internal/gen"
	"layph/internal/graph"
)

// fmtEdgeList is the edge-list writer as first written with fmt: the
// reference the strconv-based writer must match byte for byte.
func fmtEdgeList(g *graph.Graph) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# vertices %d\n", g.Cap())
	for u := 0; u < g.Cap(); u++ {
		if !g.Alive(graph.VertexID(u)) {
			fmt.Fprintf(&b, "# dead %d\n", u)
			continue
		}
		for _, e := range g.Out(graph.VertexID(u)) {
			fmt.Fprintf(&b, "%d %d %g\n", u, e.To, e.W)
		}
	}
	return b.String()
}

func edgeListOf(t *testing.T, write func(*bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriteEdgeListMatchesFmt pins the edge-list bytes to fmt's
// "%d %d %g\n" and "# dead %d\n" over awkward weights and tombstones,
// and checks that an EdgeImage writes the same bytes as its graph.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	weights := []float64{0, 1, 0.1, 1e-7, 1e21, 5e-324, math.MaxFloat64,
		math.Copysign(0, -1), -2.5, 123456789, math.Inf(1)}
	g := graph.New(len(weights) + 4)
	for i, w := range weights {
		g.AddEdge(graph.VertexID(i+1), graph.VertexID(i), w)
	}
	g.AddEdge(0, graph.VertexID(len(weights)+3), 7)
	g.DeleteVertex(0) // removes two edges, leaves a tombstone first
	g.DeleteVertex(5) // a tombstone between sources with edges
	g.DeleteVertex(graph.VertexID(len(weights) + 3))

	want := fmtEdgeList(g)
	if got := edgeListOf(t, func(b *bytes.Buffer) error { return g.WriteEdgeList(b) }); got != want {
		t.Fatalf("WriteEdgeList:\n%s\nwant:\n%s", got, want)
	}
	var im graph.EdgeImage
	im.Fill(g)
	if got := edgeListOf(t, func(b *bytes.Buffer) error { return im.WriteEdgeList(b) }); got != want {
		t.Fatalf("EdgeImage:\n%s\nwant:\n%s", got, want)
	}
}

// TestEdgeImageMatchesGraph writes a generated graph (large enough to
// spill the line buffer several times, with a deleted vertex) both ways,
// and checks that a refilled image carries no leftovers from its last
// content and keeps its content when the graph moves on.
func TestEdgeImageMatchesGraph(t *testing.T) {
	g := gen.Build(gen.PresetUK, 0.05)
	g.DeleteVertex(17)
	want := fmtEdgeList(g)
	if got := edgeListOf(t, func(b *bytes.Buffer) error { return g.WriteEdgeList(b) }); got != want {
		t.Fatal("WriteEdgeList differs from the fmt reference")
	}

	var im graph.EdgeImage
	im.Fill(graph.New(3)) // stale content the next Fill must replace
	im.Fill(g)
	if got := edgeListOf(t, func(b *bytes.Buffer) error { return im.WriteEdgeList(b) }); got != want {
		t.Fatal("EdgeImage differs from the graph it was filled from")
	}

	g.DeleteVertex(3)
	g.AddEdge(1, 2, 0.5)
	if got := edgeListOf(t, func(b *bytes.Buffer) error { return im.WriteEdgeList(b) }); got != want {
		t.Fatal("EdgeImage changed when the graph did")
	}
	im.Fill(g)
	if got, want := edgeListOf(t, func(b *bytes.Buffer) error { return im.WriteEdgeList(b) }), fmtEdgeList(g); got != want {
		t.Fatal("refilled EdgeImage differs from the graph")
	}
}
