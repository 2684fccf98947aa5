package core

import (
	"fmt"
	"math"
	"slices"

	"layph/internal/engine"
	"layph/internal/graph"
)

// CheckInvariants validates the layered structure; tests call it after
// construction and after every update. It returns the first violation.
//
// Concurrency contract: the check scans the whole structure (states,
// adjacency, subgraph maps) without locks, so it must only run at a merge
// barrier — when no pool task is in flight. It must not be called from
// inside a concurrent subgraph task: a sibling task's in-progress state
// writes would be reported as (phantom) violations. Every parallel phase
// of Update joins all of its tasks before returning, so the end of Update
// is always a safe point: tests call the check right after Update returns.
func (l *Layph) CheckInvariants() error {
	n := l.flatN()
	if len(l.flatIn) != n || len(l.upOut) != n ||
		len(l.role) != n || len(l.subOf) != n || len(l.x) != n || (l.parent != nil && len(l.parent) != n) {
		return fmt.Errorf("vector length mismatch (n=%d)", n)
	}
	// Original vertices must map identically, over the graph's whole ID
	// space; proxies must carry hosts.
	if l.origCap != l.g.Cap() {
		return fmt.Errorf("original segment ends at %d, graph cap is %d", l.origCap, l.g.Cap())
	}
	for v := 0; v < n; v++ {
		isProxy := l.proxyHost[v] != NoHost
		if (v < l.origCap) == isProxy {
			return fmt.Errorf("vertex %d: origCap=%d but proxyHost=%v", v, l.origCap, l.proxyHost[v])
		}
	}
	if err := l.checkProxyTable(); err != nil {
		return err
	}
	// flatIn mirrors flatOut.
	inCount := 0
	for v := 0; v < n; v++ {
		for _, e := range l.flatOut[v] {
			found := false
			for _, r := range l.flatIn[e.To] {
				if r.To == graph.VertexID(v) && r.W == e.W {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("flat edge (%d,%d) missing from in-list", v, e.To)
			}
		}
		inCount += len(l.flatIn[v])
	}
	outCount := 0
	for v := 0; v < n; v++ {
		outCount += len(l.flatOut[v])
	}
	if inCount != outCount {
		return fmt.Errorf("flat in/out edge counts differ: %d vs %d", inCount, outCount)
	}
	// Dead vertices carry no flat edges; roles are consistent with flat
	// adjacency and membership, and the maintained counts with the roles.
	live, skel := 0, 0
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if l.flatAlive(vid) {
			live++
			if l.onUp(vid) {
				skel++
			}
		}
		if !l.flatAlive(vid) && len(l.flatOut[v]) != 0 {
			return fmt.Errorf("dead vertex %d has flat out-edges", v)
		}
		if sv := l.subOf[v]; l.flatAlive(vid) && sv != NoSubgraph && l.subs[sv] == nil {
			return fmt.Errorf("vertex %d references missing subgraph %d", v, sv)
		}
		if want := l.roleOf(vid); l.role[v] != want {
			return fmt.Errorf("vertex %d (sub %d): role %v, want %v", v, l.subOf[v], l.role[v], want)
		}
	}
	if l.live != live || l.skel != skel {
		return fmt.Errorf("live/skeleton counts %d/%d, scan finds %d/%d", l.live, l.skel, live, skel)
	}
	// Upper layer: internal vertices never appear; lists match recomputation.
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if !l.flatAlive(vid) || !l.onUp(vid) {
			if len(l.upOut[v]) != 0 {
				return fmt.Errorf("off-skeleton vertex %d has up out-edges", v)
			}
			continue
		}
		want := l.appendUpOut(nil, vid)
		if len(want) != len(l.upOut[v]) {
			return fmt.Errorf("vertex %d: up out-list stale (%d vs %d edges)", v, len(l.upOut[v]), len(want))
		}
		wm := make(map[graph.VertexID]float64, len(want))
		for _, e := range want {
			wm[e.To] = e.W
		}
		for _, e := range l.upOut[v] {
			if w, ok := wm[e.To]; !ok || w != e.W {
				return fmt.Errorf("vertex %d: up edge (%d,%v) stale", v, e.To, e.W)
			}
		}
		for _, e := range l.upOut[v] {
			if l.role[e.To] == RoleInternal {
				return fmt.Errorf("up edge (%d,%d) targets an internal vertex", v, e.To)
			}
		}
	}
	// Flat rows equal their derivation from the graph and proxy tables (a
	// proxy whose host's layout changed must have been refreshed).
	for v := 0; v < n; v++ {
		if !sameEdges(l.flatOut[v], l.appendFlatOut(nil, graph.VertexID(v))) {
			return fmt.Errorf("vertex %d: flat row stale", v)
		}
	}
	// Subgraphs: members, role lists, frames and shortcut storage.
	assigned := make(map[int32]int, len(l.subs))
	for v := 0; v < n; v++ {
		if l.flatAlive(graph.VertexID(v)) && l.subOf[v] != NoSubgraph {
			assigned[l.subOf[v]]++
		}
	}
	for _, s := range subgraphList(l.subs) {
		if err := l.checkSubgraph(s, assigned[s.ID]); err != nil {
			return err
		}
	}
	if l.parent != nil {
		return l.checkParents()
	}
	return nil
}

// near reports whether a equals b up to a relative 1e-9: shortcut and
// stepwise sums of one path round differently.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// checkParents validates the min-scheme dependency forest: every live
// vertex with a value is a root (its root message, no parent) or has a
// parent that is a live flat in-neighbour whose value composes to its own,
// and no parent chain revisits a vertex.
func (l *Layph) checkParents() error {
	n := l.flatN()
	walk := make([]int, n) // 1 + the first vertex whose chain reached this one
	for v := 0; v < n; v++ {
		vid, p := graph.VertexID(v), l.parent[v]
		if l.flatAlive(vid) && l.x[v] != l.sr.Zero() {
			ok := p == engine.NoParent && v < l.origCap && near(l.a.InitMessage(vid), l.x[v])
			for _, e := range l.flatIn[v] {
				ok = ok || (e.To == p && l.flatAlive(p) && near(l.sr.Times(l.x[p], e.W), l.x[v]))
			}
			if !ok {
				return fmt.Errorf("vertex %d = %v: parent %d is neither its root message nor a live flat in-neighbour composing to it", v, l.x[v], p)
			}
		}
		for u := vid; int(u) < n; u = l.parent[u] {
			if walk[u] == v+1 {
				return fmt.Errorf("parent cycle through vertex %d", u)
			}
			if walk[u] != 0 {
				break
			}
			walk[u] = v + 1
		}
	}
	return nil
}

// checkSubgraph validates one subgraph against the flat graph and roles:
// its frame's ids are the live vertices assigned to it; Entries, NumExits
// and Internal classify them by role; every frame row is the compact
// projection of the member's flat row; an entry has a shortcut
// vector and every other member none; an entry's deduction parents (min
// scheme) are supported by its own row or by absorbing in-edges; and its
// live proxies replicate exactly the hosts the replication rule picks.
func (l *Layph) checkSubgraph(s *Subgraph, assigned int) error {
	c := s.ID
	if l.subs[c] != s {
		return fmt.Errorf("subgraph id mismatch %d", c)
	}
	members := s.members()
	for _, v := range members {
		if l.subOf[v] != c {
			return fmt.Errorf("member %d of sub %d has subOf %d", v, c, l.subOf[v])
		}
		if !l.flatAlive(v) {
			return fmt.Errorf("dead member %d in sub %d", v, c)
		}
	}
	if len(members) != assigned {
		return fmt.Errorf("sub %d: %d members but %d live vertices assigned", c, len(members), assigned)
	}
	lf := s.Local
	if lf == nil {
		return fmt.Errorf("sub %d: no frame", c)
	}
	want := &Subgraph{Local: lf}
	l.classifyRoles(want)
	if !sameVertices(s.Entries, want.Entries) || s.NumExits != want.NumExits || !sameVertices(s.Internal, want.Internal) {
		return fmt.Errorf("sub %d: role lists (%d/%d/%d entries/exits/internal) differ from the roles (%d/%d/%d)",
			c, len(s.Entries), s.NumExits, len(s.Internal), len(want.Entries), want.NumExits, len(want.Internal))
	}
	k := lf.size()
	if len(s.scVec) != k {
		return fmt.Errorf("sub %d: shortcut storage not frame-sized", c)
	}
	edges := 0
	for ci, v := range lf.ids {
		if l.localIdx[v] != int32(ci) {
			return fmt.Errorf("sub %d: member %d not at compact slot %d", c, v, ci)
		}
		var want []engine.WEdge
		for _, e := range l.flatOut[v] {
			if tj, ok := l.compactID(s, e.To); ok {
				want = append(want, engine.WEdge{To: graph.VertexID(tj), W: e.W})
			}
		}
		if !sameEdges(lf.out[ci], want) {
			return fmt.Errorf("sub %d: frame row of %d is not the projection of its flat row", c, v)
		}
		edges += len(lf.out[ci])
		if l.role[v].IsEntry() {
			if len(s.scVec[ci]) != k || (l.sr.Idempotent() && len(s.scParent[ci]) != k) {
				return fmt.Errorf("sub %d: entry %d has no shortcut vector", c, v)
			}
			if l.sr.Idempotent() {
				if err := l.checkShortcutParents(s, graph.VertexID(ci)); err != nil {
					return err
				}
			}
		} else if s.scVec[ci] != nil {
			return fmt.Errorf("sub %d: non-entry %d has shortcuts", c, v)
		}
	}
	if edges != lf.edges {
		return fmt.Errorf("sub %d: frame counts %d edges, rows hold %d", c, lf.edges, edges)
	}
	return l.checkReplication(s)
}

// checkReplication compares s's live proxies with the entry and exit hosts
// evaluateCommunity picks over s's live original members.
func (l *Layph) checkReplication(s *Subgraph) error {
	var live, entries, exits []graph.VertexID
	for _, v := range l.commVerts[s.ID] {
		if l.g.Alive(v) {
			live = append(live, v)
		}
	}
	for _, p := range s.proxies {
		if !l.flatAlive(p) {
			return fmt.Errorf("sub %d: dead proxy %d", s.ID, p)
		}
		h := l.proxyHost[p]
		if q, ok := l.proxyOf(true, s.ID, h); ok && q == p {
			entries = append(entries, h)
		} else {
			exits = append(exits, h)
		}
	}
	want := l.evaluateCommunity(live)
	if !sameVertices(entries, want.entryHosts) || !sameVertices(exits, want.exitHosts) {
		return fmt.Errorf("sub %d: proxies replicate hosts %v into and %v out of it, the replication rule picks %v and %v",
			s.ID, entries, exits, want.entryHosts, want.exitHosts)
	}
	return nil
}

// checkProxyTable validates the proxy refs: each proxy slot has one ref,
// filed under the proxy's host; a host has at most one ref per (subgraph,
// side); and a proxy is live, in the ref's subgraph, exactly when that
// subgraph lists it.
func (l *Layph) checkProxyTable() error {
	refs := 0
	for h, rs := range l.proxiesOf {
		refs += len(rs)
		for i, r := range rs {
			if int(r.p) < l.origCap || int(r.p) >= l.flatN() || l.proxyHost[r.p] != h {
				return fmt.Errorf("host %d: ref to %d, which is not its proxy", h, r.p)
			}
			for _, o := range rs[:i] {
				if o.sub == r.sub && o.entry == r.entry {
					return fmt.Errorf("host %d: proxies %d and %d share sub %d, entry=%v", h, o.p, r.p, r.sub, r.entry)
				}
			}
			s := l.subs[r.sub]
			listed := s != nil && slices.Contains(s.proxies, r.p)
			if live := l.flatAlive(r.p); live != listed || (live && l.subOf[r.p] != r.sub) {
				return fmt.Errorf("host %d: proxy %d in sub %d: live=%v (subOf %d), listed=%v", h, r.p, r.sub, live, l.subOf[r.p], listed)
			}
		}
	}
	if slots := l.flatN() - l.origCap; refs != slots {
		return fmt.Errorf("%d proxy refs for %d proxy slots", refs, slots)
	}
	return nil
}

// checkShortcutParents validates entry cu's deduction parents: each slot
// with a value was set either by cu's own edge or by an absorbing-frame
// in-neighbour whose value composes to it.
func (l *Layph) checkShortcutParents(s *Subgraph, cu graph.VertexID) error {
	lf := s.Local
	vec, par := s.scVec[cu], s.scParent[cu]
	for c, x := range vec {
		p, ok := par[c], x == l.sr.Zero()
		for _, e := range lf.out[cu] {
			ok = ok || (p == cu && int(e.To) == c && near(l.sr.Times(l.sr.One(), e.W), x))
		}
		l.absorbIn(s, graph.VertexID(c), func(a graph.VertexID, w float64) {
			ok = ok || (a == p && near(l.sr.Times(vec[p], w), x))
		})
		if !ok {
			return fmt.Errorf("sub %d: entry %d's shortcut to slot %d has unsupported deduction parent %d", s.ID, lf.ids[cu], c, p)
		}
	}
	return nil
}

// sameEdges reports whether two rows hold the same edges in any order.
func sameEdges(a, b []engine.WEdge) bool {
	if len(a) != len(b) {
		return false
	}
	w := make(map[graph.VertexID]float64, len(a))
	for _, e := range a {
		w[e.To] = e.W
	}
	for _, e := range b {
		if x, ok := w[e.To]; !ok || x != e.W {
			return false
		}
	}
	return len(w) == len(b)
}

// sameVertices reports whether two lists hold the same vertices in any
// order.
func sameVertices(a, b []graph.VertexID) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}
