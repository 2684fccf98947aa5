// Community-aware shard assignment: whole Layph communities are packed
// into K shards so almost all iteration stays shard-local and only
// skeleton-level boundary state crosses shards.
package shard

import (
	"sort"

	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/graph"
)

// unowned marks a vertex id no shard owns yet (never seen alive).
const unowned = int32(-1)

// buildOwners partitions g's live vertices into k shards: Louvain
// communities (the paper's dense-subgraph units) are packed whole, largest
// first, onto the currently lightest shard (greedy LPT), balancing by the
// weight of the edges each shard will host. An edge is charged to its
// target's community because shards store in-edges of the vertices they
// own. Dead ids stay unowned until they are first revived.
func buildOwners(g *graph.Graph, k int, ccfg community.Config) []int32 {
	owner := make([]int32, g.Cap())
	for i := range owner {
		owner[i] = unowned
	}
	p := community.Detect(g, ccfg)
	load := make([]float64, p.NumComms)
	g.Vertices(func(v graph.VertexID) {
		if c := p.Comm[v]; c >= 0 {
			load[c]++ // vertex charge spreads edgeless communities too
		}
	})
	g.Edges(func(u, v graph.VertexID, w float64) {
		if c := p.Comm[v]; c >= 0 {
			load[c] += w
		}
	})

	order := make([]int32, p.NumComms)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if load[a] != load[b] {
			return load[a] > load[b]
		}
		return a < b
	})

	shardLoad := make([]float64, k)
	assign := make([]int32, p.NumComms)
	for _, c := range order {
		best := 0
		for s := 1; s < k; s++ {
			if shardLoad[s] < shardLoad[best] {
				best = s
			}
		}
		assign[c] = int32(best)
		shardLoad[best] += load[c]
	}
	for v, c := range p.Comm {
		if c >= 0 {
			owner[v] = assign[c]
		}
	}
	return owner
}

// assignOwner picks a shard for a vertex first seen alive in this batch:
// the majority owner among its batch neighbors with known owners (ties to
// the lowest shard id), falling back to v mod K. New vertices are
// processed in ascending id order, so the choice is deterministic and
// earlier assignments of the same batch are visible to later ones.
func assignOwner(v graph.VertexID, k int, owner []int32, applied *delta.Applied) int32 {
	votes := make([]int, k)
	saw := false
	vote := func(u graph.VertexID) {
		if int(u) < len(owner) && owner[u] >= 0 {
			votes[owner[u]]++
			saw = true
		}
	}
	for _, e := range applied.AddedEdges {
		if e.From == v {
			vote(e.To)
		}
		if e.To == v {
			vote(e.From)
		}
	}
	if !saw {
		return int32(int(v) % k)
	}
	best := 0
	for s := 1; s < k; s++ {
		if votes[s] > votes[best] {
			best = s
		}
	}
	return int32(best)
}

// sortedVertices returns an ascending copy of vs.
func sortedVertices(vs []graph.VertexID) []graph.VertexID {
	out := append([]graph.VertexID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
