package community

import (
	"slices"

	"layph/internal/delta"
	"layph/internal/graph"
)

// VertexMove is one entry of Adjust's move log: a vertex changing community.
// From/To carry NoCommunity when the vertex had no community before (fresh
// vertices) or has none after (removed vertices).
type VertexMove struct {
	V    graph.VertexID
	From int32
	To   int32
}

// Adjust incrementally maintains a partition after a graph update, in the
// spirit of DynaMo / C-Blondel: instead of re-running detection from
// scratch, only the vertices touched by ΔG (and fresh vertices) are
// re-evaluated with Detect's local move against the current partition.
// Community ids are kept stable — the layered-graph updater relies on id
// stability to localize shortcut recomputation. Emptied communities keep
// their (now unused) id until a re-detection is aligned onto the partition
// (Align); a fresh vertex that no community gains opens a new singleton id.
//
// It returns the move log: every vertex whose assignment changed, in
// deterministic evaluation order. Its From and To ids are exactly the
// communities whose layer structures must be refreshed, and callers
// maintaining per-community member indexes can apply the moves without
// rescanning the whole assignment.
func Adjust(g *graph.Graph, p *Partition, cfg Config, applied *delta.Applied) []VertexMove {
	// Grow the assignment for fresh vertices.
	for len(p.Comm) < g.Cap() {
		p.Comm = append(p.Comm, NoCommunity)
	}

	// Community aggregates over the undirected view.
	m := mover{
		comm:  p.Comm,
		ctot:  make([]float64, p.NumComms),
		csize: make([]int, p.NumComms),
		acc:   newAccumulator(p.NumComms),
	}
	g.Vertices(func(v graph.VertexID) {
		d := g.UndirectedWeight(v)
		m.total2 += d
		if c := p.Comm[v]; c >= 0 && int(c) < p.NumComms {
			m.ctot[c] += d
			m.csize[c]++
		}
	})

	// Removed vertices leave their community. The aggregates above were
	// computed on the post-removal graph and never counted them, so only
	// the assignment is cleared.
	var moves []VertexMove
	for _, v := range applied.RemovedVertices {
		if c := p.Comm[v]; c >= 0 {
			p.Comm[v] = NoCommunity
			moves = append(moves, VertexMove{V: v, From: c, To: NoCommunity})
		}
	}

	// Candidates for re-evaluation: live added vertices plus live endpoints
	// of changed edges, each once, in ascending vertex id. Earlier moves
	// shift the community aggregates seen by later candidates, and
	// delta.Applied's net summaries come out of maps in arbitrary order —
	// without a pinned evaluation order the final assignment would differ
	// run to run.
	var cands []graph.VertexID
	add := func(v graph.VertexID) {
		if g.Alive(v) {
			cands = append(cands, v)
		}
	}
	for _, v := range applied.AddedVertices {
		add(v)
	}
	for _, e := range applied.AddedEdges {
		add(e.From)
		add(e.To)
	}
	for _, e := range applied.RemovedEdges {
		add(e.From)
		add(e.To)
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)

	for _, v := range cands {
		dv := g.UndirectedWeight(v)
		from, to := p.Comm[v], p.Comm[v]
		// On a graph without edge weight no move gains (and gains divide
		// by total2): only fresh vertices are placed, each on its own.
		if m.total2 > 0 {
			g.NeighborsUndirected(v, func(u graph.VertexID, w float64) {
				if c := p.Comm[u]; u != v && c >= 0 {
					m.acc.add(c, w)
				}
			})
			from, to = m.move(int32(v), dv, 1, cfg.MaxSize)
		}
		if to == NoCommunity {
			// No community gains a fresh vertex: it opens its own.
			to = int32(p.NumComms)
			p.NumComms++
			p.Comm[v] = to
			m.ctot = append(m.ctot, dv)
			m.csize = append(m.csize, 1)
			m.acc.grow(p.NumComms)
		}
		if from != to {
			moves = append(moves, VertexMove{V: v, From: from, To: to})
		}
	}
	return moves
}
