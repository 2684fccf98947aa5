package graph

import (
	"fmt"
	"sort"
)

// Stats summarizes the structural properties the evaluation reports (Table I
// style rows) and the ones the layered-graph builder cares about.
type Stats struct {
	Vertices     int
	Edges        int
	MaxOutDegree int
	MaxInDegree  int
	AvgDegree    float64
	// DegreeP99 is the 99th-percentile out-degree; web graphs have heavy
	// tails which drive the vertex-replication optimization.
	DegreeP99 int
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	degs := make([]int, 0, g.NumVertices())
	g.Vertices(func(v VertexID) {
		od, id := g.OutDegree(v), g.InDegree(v)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
		degs = append(degs, od)
	})
	if s.Vertices > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Vertices)
		sort.Ints(degs)
		s.DegreeP99 = degs[(len(degs)*99)/100]
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d avg-deg=%.2f max-out=%d max-in=%d p99-out=%d",
		s.Vertices, s.Edges, s.AvgDegree, s.MaxOutDegree, s.MaxInDegree, s.DegreeP99)
}

// CSRStats is the record of a compact adjacency view the graph no longer
// keeps. It is retained, always zero, for reporters that still print its
// counters.
type CSRStats struct {
	DirtyRows   int
	Compactions int64
}

// CSRStats returns the zero record.
func (g *Graph) CSRStats() CSRStats { return CSRStats{} }
