package core

import (
	"sort"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// layeredUpdate is the first online phase (Section IV-B): bring the layered
// structure in sync with the already-applied batch. It
//
//   - grows the flat ID space for fresh vertices (they join Lup as outliers;
//     by default memberships are frozen between full rebuilds, as the paper
//     prescribes: "we update the dense subgraphs only when enough ΔG are
//     accumulated" — with Options.AdaptiveCommunities the adaptMembership
//     phase instead migrates memberships incrementally and forces rebuilds
//     of the drifted subgraphs),
//   - rebuilds the structure (roles, proxies, local frames, shortcuts) of
//     every dense subgraph touched by the batch — shortcut deletion,
//     addition and reweighting from the paper collapse into this local
//     recomputation, which is confined to the affected subgraphs,
//   - refreshes the flat out-lists of every source whose edges or weights
//     may have changed, returning the edge-level diff that drives
//     revision-message deduction, and
//   - refreshes the upper-layer skeleton for the dirty vertices.
type layeredDiff struct {
	// oldSrc/oldRows snapshot pre-update flat out-lists of touched sources
	// in first-touch order (the non-idempotent scheme cancels old
	// contributions from them). Parallel slices, scratch-backed: valid
	// only until the next Update call.
	oldSrc  []graph.VertexID
	oldRows [][]engine.WEdge
	// added/removed are flat-level edge diffs with semiring weights.
	added   []flatEdge
	removed []flatEdge
	// affectedSubs are the subgraphs whose interior changed (rebuilt or
	// incrementally re-shortcut); the upload phase runs local fixpoints on
	// them.
	affectedSubs map[int32]*Subgraph
	// rebuiltSubs is the subset whose structure (roles/proxies) was fully
	// rebuilt; their proxies' memoized values are invalidated.
	rebuiltSubs map[int32]*Subgraph
	// shortcutActivations counts F applications spent maintaining shortcuts.
	shortcutActivations int64
	// membershipMoves counts the vertices the adaptive community adjustment
	// migrated during this update (0 when AdaptiveCommunities is off).
	membershipMoves int64
	// parallelSubs counts the subgraph tasks dispatched to the worker pool
	// during shortcut maintenance (rebuilds + incremental updates).
	parallelSubs int64
}

type flatEdge struct {
	from, to graph.VertexID
	w        float64
}

func (l *Layph) layeredUpdate(applied *delta.Applied) *layeredDiff {
	d := &layeredDiff{
		affectedSubs: make(map[int32]*Subgraph),
		rebuiltSubs:  make(map[int32]*Subgraph),
	}
	l.growForNewVertices(applied)
	sc := &l.scratch
	sc.touched.Reset(l.flatN())
	sc.dirtyRoles.Reset(l.flatN())
	sc.oldSeen.Reset(l.flatN())
	sc.oldRows = sc.oldRows[:0]

	// Adaptive phase: evolve the community partition with the batch and
	// migrate subgraph membership before any flat row is refreshed, so the
	// first refresh pass snapshots true pre-batch routing and the rebuilt
	// rows already reflect the new memberships. Subgraphs whose membership
	// changed are force-rebuilt below.
	var forcedRebuild []int32
	if l.opt.AdaptiveCommunities {
		forcedRebuild, d.membershipMoves = l.adaptMembership(applied)
	}

	// Pass 1: refresh the flat lists of sources whose out-edges (or, for
	// degree-dependent weights, out-weights) changed: sources of changed
	// edges, removed vertices, added vertices, and the entry proxies that
	// carry a changed cross edge on behalf of their host.
	markTouched := func(v graph.VertexID) {
		if int(v) < l.flatN() {
			sc.touched.Add(v)
		}
	}
	subOfSafe := func(v graph.VertexID) int32 {
		if int(v) < len(l.subOf) {
			if c := l.subOf[v]; c != NoSubgraph {
				if _, ok := l.subs[c]; ok {
					return c
				}
			}
		}
		return NoSubgraph
	}
	// Entry proxies inherit their host's degree-dependent edge weights, so
	// any change to a host's out-list dirties every entry proxy replicating
	// it — in every subgraph, not just the one the changed edge targets.
	if sc.hostProxies == nil {
		sc.hostProxies = make(map[graph.VertexID][]graph.VertexID)
	}
	clear(sc.hostProxies)
	hostProxies := sc.hostProxies
	for k, p := range l.entryProxy {
		if l.proxyAlive[p] {
			hostProxies[k.host] = append(hostProxies[k.host], p)
		}
	}
	touchSource := func(u graph.VertexID) {
		markTouched(u)
		for _, p := range hostProxies[u] {
			markTouched(p)
		}
	}
	changedEdges := append(append([]graph.DeletedEdge(nil), applied.AddedEdges...), applied.RemovedEdges...)
	for _, e := range changedEdges {
		touchSource(e.From)
		if sv := subOfSafe(e.To); sv != NoSubgraph && subOfSafe(e.From) != sv {
			if p, ok := l.entryProxy[proxyKey{sv, e.From}]; ok && l.proxyAlive[p] {
				markTouched(p)
			}
		}
	}
	for _, v := range applied.RemovedVertices {
		touchSource(v)
	}
	for _, v := range applied.AddedVertices {
		markTouched(v)
	}

	refresh := func(v graph.VertexID) {
		old, added, removed := l.refreshFlatVertex(v)
		// Keep the FIRST (true pre-batch) list if v is refreshed twice —
		// rebuilds reroute proxies, forcing a second pass; the sum-scheme
		// corrections must cancel against the pre-batch contributions.
		if sc.oldSeen.Add(v) {
			sc.oldRows = append(sc.oldRows, old)
		}
		for _, e := range added {
			d.added = append(d.added, flatEdge{from: v, to: e.To, w: e.W})
			sc.dirtyRoles.Add(e.To)
		}
		for _, e := range removed {
			d.removed = append(d.removed, flatEdge{from: v, to: e.To, w: e.W})
			if int(e.To) < l.flatN() {
				sc.dirtyRoles.Add(e.To)
			}
		}
		sc.dirtyRoles.Add(v)
	}
	for _, v := range sc.touched.List {
		refresh(v)
	}

	// Decide which dense subgraphs need a structural rebuild. The paper's
	// three shortcut-update cases (deletion, addition, weight update) map to:
	//
	//   - an internal flat edge changed (weight updates included) — the
	//     subgraph's path sums move;
	//   - a member's role flipped (a new external in-edge turns an internal
	//     vertex into an entry whose shortcuts must be deduced; deleting the
	//     last one reverses it) — the absorbing structure moves;
	//   - a replication decision flipped (a host crossed the threshold R);
	//   - a member vertex was removed.
	rebuild := make(map[int32]struct{})
	markRebuild := func(c int32) {
		if c != NoSubgraph {
			if _, ok := l.subs[c]; ok {
				rebuild[c] = struct{}{}
			}
		}
	}
	// Membership drift forces a structural rebuild regardless of role or
	// replication flips (this includes subgraphs freshly promoted by
	// adaptMembership, whose frames don't exist yet).
	for _, c := range forcedRebuild {
		markRebuild(c)
	}
	// Role flips among diff endpoints. roleCands is the current dirtyRoles
	// prefix (capacity-clamped: the set keeps growing below).
	nCands := len(sc.dirtyRoles.List)
	roleCands := sc.dirtyRoles.List[:nCands:nCands]
	sc.oldRoles = sc.oldRoles[:0]
	for _, v := range roleCands {
		sc.oldRoles = append(sc.oldRoles, l.role[v])
	}
	l.recomputeRoles(roleCands)
	for i, v := range roleCands {
		if l.role[v] != sc.oldRoles[i] {
			markRebuild(subOfSafe(v))
		}
	}

	// Replication-decision flips on changed cross edges.
	r := l.opt.replication()
	for _, e := range changedEdges {
		u, v := e.From, e.To
		su, sv := subOfSafe(u), subOfSafe(v)
		if sv != NoSubgraph && su != sv {
			count := 0
			if l.g.Alive(u) {
				for _, oe := range l.g.Out(u) {
					if subOfSafe(oe.To) == sv {
						count++
					}
				}
			}
			desire := r > 0 && count >= r
			if desire != l.hasProxy(l.entryProxy, sv, u) {
				markRebuild(sv)
			}
		}
		if su != NoSubgraph && su != sv {
			count := 0
			if l.g.Alive(v) {
				for _, ie := range l.g.In(v) {
					if subOfSafe(ie.To) == su {
						count++
					}
				}
			}
			desire := r > 0 && count >= r
			if desire != l.hasProxy(l.exitProxy, su, v) {
				markRebuild(su)
			}
		}
	}
	for _, v := range applied.RemovedVertices {
		markRebuild(subOfSafe(v))
	}

	// Rebuild phase: memberships are taken as-is (frozen, or already
	// migrated by adaptMembership); proxies are re-decided, the local frame
	// and every shortcut of the subgraph are re-deduced. Sorted order keeps
	// fresh proxy IDs reproducible between runs.
	rebuildIDs := make([]int32, 0, len(rebuild))
	for c := range rebuild {
		rebuildIDs = append(rebuildIDs, c)
	}
	sort.Slice(rebuildIDs, func(a, b int) bool { return rebuildIDs[a] < rebuildIDs[b] })
	for _, c := range rebuildIDs {
		s := l.subs[c]
		for _, v := range s.Members {
			sc.dirtyRoles.Add(v)
			markTouched(v)
			if int(v) < l.g.Cap() && l.g.Alive(v) {
				for _, ie := range l.g.In(v) {
					if l.subOf[ie.To] != c {
						markTouched(ie.To)
					}
				}
			}
		}
		for _, p := range s.proxies {
			l.proxyAlive[p] = false
			l.subOf[p] = NoSubgraph
			sc.dirtyRoles.Add(p)
			markTouched(p)
		}
		s.proxies = s.proxies[:0]

		live := s.origMembers[:0]
		for _, v := range s.origMembers {
			if l.g.Alive(v) {
				live = append(live, v)
			}
		}
		s.origMembers = live
		dec := l.evaluateCommunity(c, s.origMembers)
		if !dec.dense || len(s.origMembers) < 2 {
			for _, v := range s.origMembers {
				l.subOf[v] = NoSubgraph
				sc.dirtyRoles.Add(v)
				markTouched(v)
			}
			delete(l.subs, c)
			continue
		}
		for _, h := range dec.entryHosts {
			p := l.allocProxy(l.entryProxy, c, h)
			s.proxies = append(s.proxies, p)
			sc.dirtyRoles.Add(p)
			markTouched(p)
			markTouched(h)
		}
		for _, h := range dec.exitHosts {
			p := l.allocProxy(l.exitProxy, c, h)
			s.proxies = append(s.proxies, p)
			sc.dirtyRoles.Add(p)
			markTouched(p)
		}
		d.affectedSubs[c] = s
		d.rebuiltSubs[c] = s
	}
	for _, v := range sc.touched.List {
		refresh(v)
	}
	d.oldSrc, d.oldRows = sc.oldSeen.List, sc.oldRows

	l.recomputeRoles(sc.dirtyRoles.List)

	rebuildActs, rebuildTasks := l.buildSubgraphs(subgraphList(d.rebuiltSubs))
	d.parallelSubs += rebuildTasks
	d.shortcutActivations += rebuildActs

	// Incremental shortcut maintenance (the paper's Section IV-B weight
	// updates): subgraphs whose internal edges changed without any
	// structural flip absorb the diffs into their memoized per-entry
	// vectors instead of re-deducing from scratch.
	intraAdd := make(map[int32][]flatEdge)
	intraDel := make(map[int32][]flatEdge)
	markIntra := func(m map[int32][]flatEdge, e flatEdge) {
		if c := subOfSafe(e.from); c != NoSubgraph && subOfSafe(e.to) == c {
			if _, full := d.rebuiltSubs[c]; !full {
				m[c] = append(m[c], e)
			}
		}
	}
	for _, e := range d.added {
		markIntra(intraAdd, e)
	}
	for _, e := range d.removed {
		markIntra(intraDel, e)
	}
	for c := range intraAdd {
		if _, ok := intraDel[c]; !ok {
			intraDel[c] = nil
		}
	}
	// Conservative guard: batches that delete vertices fall back to full
	// re-deduction for the intra-changed subgraphs. Vertex deletions ripple
	// through proxy routing in ways the row-level diff above does not fully
	// capture; deletions are rare in the paper's workloads (Figure 5e), so
	// correctness is bought here at negligible average cost.
	//
	// Each subgraph's shortcut maintenance touches only its own frame and
	// memoized vectors (the flat adjacency is frozen by now), so the
	// per-subgraph work fans out over the worker pool.
	forceFull := len(applied.RemovedVertices) > 0
	intraSubs := make([]*Subgraph, 0, len(intraDel))
	for c := range intraDel {
		intraSubs = append(intraSubs, l.subs[c])
	}
	sortSubgraphs(intraSubs)
	maintain := func(s *Subgraph, parallelEntries bool) int64 {
		if forceFull {
			l.classifyMembers(s)
			l.buildLocalFrame(s)
			return l.deduceShortcutsPar(s, parallelEntries)
		}
		return l.updateShortcutsIncremental(s, intraAdd[s.ID], intraDel[s.ID])
	}
	if len(intraSubs) == 1 {
		// Single subgraph: fan out inside it (per-entry deduction) rather
		// than spending the pool on a one-task outer level.
		d.parallelSubs++
		d.shortcutActivations += maintain(intraSubs[0], true)
	} else if len(intraSubs) > 1 {
		chunks := l.subgraphChunks(intraSubs)
		d.parallelSubs += int64(len(chunks))
		intraActs := make([]int64, len(chunks))
		grp := l.pool.Group()
		for i, ch := range chunks {
			i, ch := i, ch
			grp.Go(func() {
				var a int64
				for _, s := range ch {
					a += maintain(s, false)
				}
				intraActs[i] = a
			})
		}
		grp.Wait()
		for _, a := range intraActs {
			d.shortcutActivations += a
		}
	}
	for _, s := range intraSubs {
		d.affectedSubs[s.ID] = s
	}

	sc.upDirty.Reset(l.flatN())
	for _, v := range sc.dirtyRoles.List {
		sc.upDirty.Add(v)
	}
	for _, s := range subgraphList(d.affectedSubs) {
		for _, u := range s.Entries {
			sc.upDirty.Add(u)
		}
	}
	for _, v := range sc.upDirty.List {
		l.refreshUpVertex(v)
	}
	return d
}

// growForNewVertices extends all flat-space vectors when the graph gained
// vertices. The invariant "original vertex v is flat vertex v" must hold, so
// when fresh original IDs would collide with previously allocated proxy IDs,
// the proxy segment is relocated past the new cap.
func (l *Layph) growForNewVertices(applied *delta.Applied) {
	if len(applied.AddedVertices) == 0 {
		return
	}
	capNow := l.g.Cap()
	if capNow > l.origCap {
		if l.flatN() > l.origCap {
			l.remapProxies(capNow)
		} else {
			for l.flatN() < capNow {
				l.subOf = append(l.subOf, NoSubgraph)
				l.role = append(l.role, RoleDead)
				l.proxyHost = append(l.proxyHost, NoHost)
				l.proxyAlive = append(l.proxyAlive, false)
				l.localIdx = append(l.localIdx, -1)
				l.flatOut = append(l.flatOut, nil)
				l.flatIn = append(l.flatIn, nil)
				l.upOut = append(l.upOut, nil)
				l.upIn = append(l.upIn, nil)
				l.x = append(l.x, l.sr.Zero())
				if l.parent != nil {
					l.parent = append(l.parent, engine.NoParent)
				}
			}
		}
		l.origCap = capNow
	}
	for _, v := range applied.AddedVertices {
		l.subOf[v] = NoSubgraph
		l.role[v] = RoleOutlier
		l.x[v] = l.a.InitState(v)
		if l.parent != nil {
			l.parent[v] = engine.NoParent
		}
	}
}

// remapProxies relocates all proxy vertices to the end of the grown ID
// space. Proxy state (x, parents, adjacency) moves with them.
func (l *Layph) remapProxies(newCap int) {
	oldN := l.flatN()
	numProxies := 0
	remap := make(map[graph.VertexID]graph.VertexID)
	for v := l.origCap; v < oldN; v++ {
		remap[graph.VertexID(v)] = graph.VertexID(newCap + numProxies)
		numProxies++
	}
	if numProxies == 0 {
		return
	}
	mapID := func(v graph.VertexID) graph.VertexID {
		if nv, ok := remap[v]; ok {
			return nv
		}
		return v
	}
	newN := newCap + numProxies
	subOf := make([]int32, newN)
	role := make([]Role, newN)
	proxyHost := make([]graph.VertexID, newN)
	proxyAlive := make([]bool, newN)
	flatOut := make([][]engine.WEdge, newN)
	flatIn := make([][]engine.WEdge, newN)
	upOut := make([][]engine.WEdge, newN)
	upIn := make([][]engine.WEdge, newN)
	x := make([]float64, newN)
	var parent []graph.VertexID
	if l.parent != nil {
		parent = make([]graph.VertexID, newN)
	}
	for i := 0; i < newN; i++ {
		subOf[i] = NoSubgraph
		role[i] = RoleDead
		proxyHost[i] = NoHost
		x[i] = l.sr.Zero()
		if parent != nil {
			parent[i] = engine.NoParent
		}
	}
	moveList := func(list []engine.WEdge) []engine.WEdge {
		out := make([]engine.WEdge, len(list))
		for i, e := range list {
			out[i] = engine.WEdge{To: mapID(e.To), W: e.W}
		}
		return out
	}
	for v := 0; v < oldN; v++ {
		nv := mapID(graph.VertexID(v))
		subOf[nv] = l.subOf[v]
		role[nv] = l.role[v]
		proxyHost[nv] = l.proxyHost[v]
		proxyAlive[nv] = l.proxyAlive[v]
		flatOut[nv] = moveList(l.flatOut[v])
		flatIn[nv] = moveList(l.flatIn[v])
		upOut[nv] = moveList(l.upOut[v])
		upIn[nv] = moveList(l.upIn[v])
		x[nv] = l.x[v]
		if parent != nil {
			p := l.parent[v]
			if p != engine.NoParent {
				p = mapID(p)
			}
			parent[nv] = p
		}
	}
	l.subOf, l.role, l.proxyHost, l.proxyAlive = subOf, role, proxyHost, proxyAlive
	l.flatOut, l.flatIn, l.upOut, l.upIn = flatOut, flatIn, upOut, upIn
	l.x, l.parent = x, parent
	l.localIdx = make([]int32, newN)
	for i := range l.localIdx {
		l.localIdx[i] = -1
	}
	for k, p := range l.entryProxy {
		l.entryProxy[k] = mapID(p)
	}
	for k, p := range l.exitProxy {
		l.exitProxy[k] = mapID(p)
	}
	for _, s := range l.subs {
		for i, p := range s.proxies {
			s.proxies[i] = mapID(p)
		}
		for i, v := range s.Members {
			s.Members[i] = mapID(v)
		}
		for i, v := range s.Entries {
			s.Entries[i] = mapID(v)
		}
		for i, v := range s.Exits {
			s.Exits[i] = mapID(v)
		}
		for i, v := range s.Internal {
			s.Internal[i] = mapID(v)
		}
		if s.Local != nil {
			for i, v := range s.Local.ids {
				s.Local.ids[i] = mapID(v)
				l.localIdx[s.Local.ids[i]] = int32(i)
			}
		}
		// Shortcut lists target global flat IDs; their vectors and parents
		// live in compact-ID space and survive the remap untouched.
		for i, list := range s.scToB {
			s.scToB[i] = moveList(list)
		}
		for i, list := range s.scToI {
			s.scToI[i] = moveList(list)
		}
	}
}
