// Package graph provides the directed, weighted, mutable graph substrate
// shared by every engine in this repository.
//
// The representation is adjacency-list based (both out- and in-lists are
// maintained) because incremental processing needs cheap edge insertion and
// deletion as well as reverse traversal for entry-vertex detection and
// dependency tracking. Vertex identifiers are dense uint32 indices; deleted
// vertices are tombstoned via a liveness bitmap so that identifiers held by
// memoized engine state remain stable across updates.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense indices into the graph's
// internal slices and remain stable for the lifetime of the graph, including
// across vertex deletion (deleted IDs are tombstoned, not recycled).
type VertexID = uint32

// Edge is one directed out-edge (or, in an in-list, the mirrored in-edge).
type Edge struct {
	To VertexID // destination (or source, in an in-list)
	W  float64  // raw edge weight from the input graph
}

// Graph is a directed weighted multigraph-free graph: at most one edge per
// ordered vertex pair. Parallel-edge inserts overwrite the weight, matching
// the paper's model where a weight change is a delete followed by an add.
//
// Graph is not safe for concurrent mutation; engines snapshot or coordinate
// externally. Concurrent reads are safe.
type Graph struct {
	out   [][]Edge
	in    [][]Edge
	alive []bool
	numV  int // live vertices
	numE  int // live edges
}

// New returns an empty graph with n live vertices (IDs 0..n-1) and no edges.
func New(n int) *Graph {
	g := &Graph{
		out:   make([][]Edge, n),
		in:    make([][]Edge, n),
		alive: make([]bool, n),
		numV:  n,
	}
	for i := range g.alive {
		g.alive[i] = true
	}
	return g
}

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.numE }

// Cap returns the size of the ID space: every valid VertexID is < Cap().
// Cap never shrinks; deleted vertices keep their slot.
func (g *Graph) Cap() int { return len(g.out) }

// Alive reports whether v is a live vertex.
func (g *Graph) Alive(v VertexID) bool {
	return int(v) < len(g.alive) && g.alive[v]
}

// Out returns the out-edge list of u. The returned slice is owned by the
// graph and must not be mutated or retained across mutations.
func (g *Graph) Out(u VertexID) []Edge { return g.out[u] }

// In returns the in-edge list of v (each Edge.To is the *source* vertex).
// Same ownership rules as Out.
func (g *Graph) In(v VertexID) []Edge { return g.in[v] }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u VertexID) int { return len(g.out[u]) }

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.in[v]) }

// OutWeightSum returns the sum of raw weights over u's out-edges.
func (g *Graph) OutWeightSum(u VertexID) float64 {
	var s float64
	for _, e := range g.out[u] {
		s += e.W
	}
	return s
}

// HasEdge reports whether the edge (u,v) exists, and its weight if so.
func (g *Graph) HasEdge(u, v VertexID) (float64, bool) {
	if int(u) >= len(g.out) {
		return 0, false
	}
	for _, e := range g.out[u] {
		if e.To == v {
			return e.W, true
		}
	}
	return 0, false
}

// AddVertex appends a fresh live vertex and returns its ID.
func (g *Graph) AddVertex() VertexID {
	id := VertexID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.alive = append(g.alive, true)
	g.numV++
	return id
}

// ReviveVertex marks a tombstoned vertex live again (used when an update
// stream re-adds a previously deleted vertex ID). Reviving a live vertex is a
// no-op.
func (g *Graph) ReviveVertex(v VertexID) {
	if int(v) >= len(g.alive) {
		panic(fmt.Sprintf("graph: revive of out-of-range vertex %d (cap %d)", v, len(g.alive)))
	}
	if !g.alive[v] {
		g.alive[v] = true
		g.numV++
	}
}

// DeleteVertex tombstones v and removes all its incident edges. It returns
// the edges that were removed (out-edges first, then in-edges, excluding a
// self-loop counted once) so callers can deduce revision messages or undo.
func (g *Graph) DeleteVertex(v VertexID) (removed []DeletedEdge) {
	if !g.Alive(v) {
		return nil
	}
	for _, e := range g.out[v] {
		removed = append(removed, DeletedEdge{From: v, To: e.To, W: e.W})
		g.removeIn(e.To, v)
		g.numE--
	}
	g.out[v] = nil
	for _, e := range g.in[v] {
		if e.To == v { // self loop already removed via out pass
			continue
		}
		removed = append(removed, DeletedEdge{From: e.To, To: v, W: e.W})
		g.removeOut(e.To, v)
		g.numE--
	}
	g.in[v] = nil
	g.alive[v] = false
	g.numV--
	return removed
}

// DeletedEdge records one edge removed by DeleteVertex or DeleteEdge.
type DeletedEdge struct {
	From, To VertexID
	W        float64
}

// AddEdge inserts the directed edge (u,v) with weight w. If the edge already
// exists its weight is overwritten and the previous weight is returned with
// replaced=true. Both endpoints must be live.
func (g *Graph) AddEdge(u, v VertexID, w float64) (prev float64, replaced bool) {
	if !g.Alive(u) || !g.Alive(v) {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) with dead endpoint", u, v))
	}
	for i := range g.out[u] {
		if g.out[u][i].To == v {
			prev = g.out[u][i].W
			g.out[u][i].W = w
			for j := range g.in[v] {
				if g.in[v][j].To == u {
					g.in[v][j].W = w
					break
				}
			}
			return prev, true
		}
	}
	g.out[u] = append(g.out[u], Edge{To: v, W: w})
	g.in[v] = append(g.in[v], Edge{To: u, W: w})
	g.numE++
	return 0, false
}

// DeleteEdge removes the directed edge (u,v). It returns the removed weight
// and whether the edge existed.
func (g *Graph) DeleteEdge(u, v VertexID) (w float64, ok bool) {
	if int(u) >= len(g.out) {
		return 0, false
	}
	for i := range g.out[u] {
		if g.out[u][i].To == v {
			w = g.out[u][i].W
			g.out[u] = append(g.out[u][:i], g.out[u][i+1:]...)
			g.removeIn(v, u)
			g.numE--
			return w, true
		}
	}
	return 0, false
}

func (g *Graph) removeIn(v, from VertexID) {
	l := g.in[v]
	for i := range l {
		if l[i].To == from {
			g.in[v] = append(l[:i], l[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("graph: in-list of %d missing mirror of edge from %d", v, from))
}

func (g *Graph) removeOut(u, to VertexID) {
	l := g.out[u]
	for i := range l {
		if l[i].To == to {
			g.out[u] = append(l[:i], l[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("graph: out-list of %d missing edge to %d", u, to))
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		out:   make([][]Edge, len(g.out)),
		in:    make([][]Edge, len(g.in)),
		alive: append([]bool(nil), g.alive...),
		numV:  g.numV,
		numE:  g.numE,
	}
	for i := range g.out {
		if g.out[i] != nil {
			c.out[i] = append([]Edge(nil), g.out[i]...)
		}
		if g.in[i] != nil {
			c.in[i] = append([]Edge(nil), g.in[i]...)
		}
	}
	return c
}

// Vertices calls f for every live vertex in ascending ID order.
func (g *Graph) Vertices(f func(v VertexID)) {
	for i, a := range g.alive {
		if a {
			f(VertexID(i))
		}
	}
}

// Edges calls f for every live edge, grouped by source in ascending order.
func (g *Graph) Edges(f func(u, v VertexID, w float64)) {
	for u := range g.out {
		if !g.alive[u] {
			continue
		}
		for _, e := range g.out[u] {
			f(VertexID(u), e.To, e.W)
		}
	}
}

// SortAdjacency sorts every adjacency list by destination ID. Generators and
// tests use it to make iteration order canonical; engines do not rely on it.
func (g *Graph) SortAdjacency() {
	for i := range g.out {
		sort.Slice(g.out[i], func(a, b int) bool { return g.out[i][a].To < g.out[i][b].To })
		sort.Slice(g.in[i], func(a, b int) bool { return g.in[i][a].To < g.in[i][b].To })
	}
}

// CheckConsistency validates internal invariants (mirrored in/out lists, live
// counts, no dead endpoints). It is used by tests and returns the first
// violation found.
func (g *Graph) CheckConsistency() error {
	liveV, liveE := 0, 0
	for u := range g.out {
		if g.alive[u] {
			liveV++
		}
		for _, e := range g.out[u] {
			liveE++
			if !g.alive[u] || !g.alive[e.To] {
				return fmt.Errorf("edge (%d,%d) has dead endpoint", u, e.To)
			}
			found := false
			for _, r := range g.in[e.To] {
				if r.To == VertexID(u) && r.W == e.W {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("edge (%d,%d,w=%v) missing from in-list", u, e.To, e.W)
			}
		}
	}
	for v := range g.in {
		for _, r := range g.in[v] {
			if _, ok := g.HasEdge(r.To, VertexID(v)); !ok {
				return fmt.Errorf("in-list of %d references nonexistent edge from %d", v, r.To)
			}
		}
	}
	if liveV != g.numV {
		return fmt.Errorf("live vertex count %d != recorded %d", liveV, g.numV)
	}
	if liveE != g.numE {
		return fmt.Errorf("live edge count %d != recorded %d", liveE, g.numE)
	}
	return nil
}
