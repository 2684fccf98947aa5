package core

import (
	"slices"

	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Redetect runs community detection on g, a clone of the engine's graph
// that the caller owns, and may run on any goroutine. The returned landing
// must run where Update runs, after any number of further batches: it
// renumbers the fresh partition onto the live ids (community.Align), makes
// the vertices the graph gained or lost since the clone outliers of it,
// migrates every live vertex whose id changed, and runs an update over an
// empty batch, which rebuilds only the changed communities.
func (l *Layph) Redetect(g *graph.Graph) func() inc.Stats {
	fresh := community.Detect(g, l.opt.Community)
	return func() inc.Stats { return l.update(&delta.Applied{}, fresh) }
}

// land makes fresh the engine's partition and returns the communities to
// rebuild (see Redetect).
func (l *Layph) land(fresh *community.Partition) (forced []int32, moves int64) {
	pad := func(comm []int32) []int32 {
		return append(comm, slices.Repeat([]int32{community.NoCommunity}, max(l.g.Cap()-len(comm), 0))...)
	}
	fresh.Comm, l.part.Comm = pad(fresh.Comm), pad(l.part.Comm)
	for v := range fresh.Comm {
		if !l.g.Alive(graph.VertexID(v)) {
			fresh.Comm[v] = community.NoCommunity
		}
	}
	community.Align(l.part, fresh)
	var moved []community.VertexMove
	for v, to := range fresh.Comm {
		if from := l.part.Comm[v]; from != to && l.g.Alive(graph.VertexID(v)) {
			moved = append(moved, community.VertexMove{V: graph.VertexID(v), From: from, To: to})
		}
	}
	// Subgraphs of ids the fresh partition no longer has keep an (empty)
	// member list until their restructure dissolves them.
	l.commVerts = append(fresh.Members(), make([][]graph.VertexID, max(l.part.NumComms-fresh.NumComms, 0))...)
	l.part = fresh
	return l.migrate(moved), int64(len(moved))
}

// migrate applies community moves, already recorded in the partition and
// in commVerts, to the layering. For every moved vertex subOf is repointed
// (dense subgraphs only — communities without one are outlier territory),
// and the rows of the vertex and of its entry proxies are marked for
// refresh. Its in-neighbours' rows need no mark here: an in-neighbour's
// edge to it changes route only through the in-neighbour's entry proxy in
// the subgraph the vertex left or joined, or when the vertex left or joined
// the in-neighbour's own subgraph, and the restructure of that subgraph
// queues the row (the old frame of the one it left still lists it).
// Changed communities that back a dense subgraph are returned as forced
// structural rebuilds; changed communities without one are re-evaluated
// for density and promoted to a fresh subgraph when they qualify (a split
// or merge that crossed the density threshold).
func (l *Layph) migrate(moved []community.VertexMove) (forced []int32) {
	sc := &l.scratch
	// The vertex's flat row must be re-routed against its new subgraph, and
	// so must the rows of its entry proxies, which leave out the edges its
	// subgraph's exit proxies carry.
	reroute := func(v graph.VertexID) {
		l.touchSource(v)
		sc.dirty.Add(v)
	}
	var changed []int32
	for _, m := range moved {
		if m.From >= 0 {
			changed = append(changed, m.From)
		}
		if m.To >= 0 {
			changed = append(changed, m.To)
		}
		l.subOf[m.V] = NoSubgraph
		if _, ok := l.subs[m.To]; ok {
			l.subOf[m.V] = m.To
		}
		if l.flatAlive(m.V) {
			reroute(m.V)
		}
	}

	// Changed communities in ascending id order (deterministic rebuild and
	// promotion order).
	slices.Sort(changed)
	for _, c := range slices.Compact(changed) {
		if _, ok := l.subs[c]; ok {
			forced = append(forced, c)
			continue
		}
		// No subgraph backs this community yet: promote it if it now passes
		// the density test. The structural rebuild pass allocates proxies
		// and builds the frame; here only membership is claimed.
		var live []graph.VertexID
		for _, v := range l.commVerts[c] {
			if l.g.Alive(v) {
				live = append(live, v)
			}
		}
		if len(live) < 2 {
			continue
		}
		l.evaluations++
		if dec := l.evaluateCommunity(live); !dec.dense {
			continue
		}
		for _, v := range live {
			l.subOf[v] = c
			reroute(v)
		}
		l.subs[c] = &Subgraph{ID: c}
		forced = append(forced, c)
	}
	return forced
}
