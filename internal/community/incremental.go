package community

import (
	"slices"

	"layph/internal/delta"
	"layph/internal/graph"
)

// VertexMove records one vertex changing community during AdjustDetailed.
// From/To carry NoCommunity when the vertex had no community before (fresh
// vertices) or has none after (removed vertices).
type VertexMove struct {
	V    graph.VertexID
	From int32
	To   int32
}

// AdjustResult is the full outcome of an incremental adjustment.
type AdjustResult struct {
	// Changed is the set of community ids whose membership changed
	// (including ids that only gained or only lost vertices).
	Changed map[int32]struct{}
	// Moved lists every vertex whose assignment changed, in deterministic
	// evaluation order. Callers maintaining per-community member indexes
	// can apply these records without rescanning the whole assignment.
	Moved []VertexMove
}

// AdjustDetailed incrementally maintains a partition after a graph update, in the
// spirit of DynaMo / C-Blondel: instead of re-running detection from
// scratch, only the vertices touched by ΔG (and fresh vertices) are
// re-evaluated with Louvain local moves against the current partition.
// Community ids are kept stable — the layered-graph updater relies on id
// stability to localize shortcut recomputation. Emptied communities keep
// their (now unused) id until a re-detection is aligned onto the partition
// (Align); vertices moving to a fresh singleton get a new id.
//
// It returns the set of community ids whose membership changed (including
// ids that gained or lost vertices), which is exactly the set of subgraphs
// whose layer structures must be refreshed, plus the per-vertex move log
// (see AdjustResult).
func AdjustDetailed(g *graph.Graph, p *Partition, cfg Config, applied *delta.Applied) AdjustResult {
	res := AdjustResult{Changed: make(map[int32]struct{})}
	changed := res.Changed
	// Grow the assignment for fresh vertices.
	for len(p.Comm) < g.Cap() {
		p.Comm = append(p.Comm, NoCommunity)
	}

	// Community aggregates over the undirected view.
	var total2 float64
	ctot := make([]float64, p.NumComms)
	csize := make([]int, p.NumComms)
	g.Vertices(func(v graph.VertexID) {
		d := g.UndirectedWeight(v)
		total2 += d
		if c := p.Comm[v]; c >= 0 && int(c) < p.NumComms {
			ctot[c] += d
			csize[c]++
		}
	})
	if total2 == 0 {
		return res
	}

	// Weight from the candidate to each neighbor community, by id.
	acc := newAccumulator(p.NumComms)
	newCommunity := func(v graph.VertexID) int32 {
		id := int32(p.NumComms)
		p.NumComms++
		ctot = append(ctot, 0)
		csize = append(csize, 0)
		acc.grow(p.NumComms)
		p.Comm[v] = id
		return id
	}

	attach := func(v graph.VertexID, c int32) {
		p.Comm[v] = c
		ctot[c] += g.UndirectedWeight(v)
		csize[c]++
		changed[c] = struct{}{}
	}

	// Removed vertices leave their community. The aggregates above were
	// computed on the post-removal graph and never counted them, so only
	// the assignment is cleared.
	for _, v := range applied.RemovedVertices {
		if c := p.Comm[v]; c >= 0 {
			changed[c] = struct{}{}
			p.Comm[v] = NoCommunity
			res.Moved = append(res.Moved, VertexMove{V: v, From: c, To: NoCommunity})
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
		g.NeighborsUndirected(v, func(u graph.VertexID, w float64) {
			if u == v {
				return
			}
			if c := p.Comm[u]; c >= 0 {
				acc.add(c, w)
			}
		})
		dv := g.UndirectedWeight(v)
		cur := p.Comm[v]

		// Evaluate as if detached.
		if cur >= 0 {
			ctot[cur] -= dv
			csize[cur]--
		}
		best := cur
		bestGain := 0.0
		if cur >= 0 {
			bestGain = acc.w[cur] - dv*ctot[cur]/total2
		}
		// Scan candidate communities in ascending id order so that ties
		// (gains within minGain of each other) resolve to the lowest id,
		// as in Detect's local moves.
		slices.Sort(acc.touched)
		for _, c := range acc.touched {
			if c == cur {
				continue
			}
			if cfg.MaxSize > 0 && csize[c]+1 > cfg.MaxSize {
				continue
			}
			if gain := acc.w[c] - dv*ctot[c]/total2; gain > bestGain+minGain {
				bestGain = gain
				best = c
			}
		}
		acc.reset()
		switch {
		case best == cur && cur >= 0:
			ctot[cur] += dv
			csize[cur]++
		case best >= 0 && best != cur:
			if cur >= 0 {
				changed[cur] = struct{}{}
			}
			p.Comm[v] = NoCommunity
			attach(v, best)
			res.Moved = append(res.Moved, VertexMove{V: v, From: cur, To: best})
		case cur < 0 && best < 0:
			id := newCommunity(v)
			// newCommunity already set the assignment; attach re-sets it and
			// records the aggregates + changed mark.
			attach(v, id)
			res.Moved = append(res.Moved, VertexMove{V: v, From: NoCommunity, To: id})
		}
	}
	return res
}
