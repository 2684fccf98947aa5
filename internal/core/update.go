package core

import (
	"cmp"
	"slices"

	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// layeredDiff is what layeredUpdate hands the online phases.
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
	settledSubs
	// membershipMoves counts the vertices the adaptive community adjustment
	// or a landing re-detection migrated during this update.
	membershipMoves int64
}

// settledSubs is what settle reports about the subgraphs it changed.
type settledSubs struct {
	// affectedSubs are the subgraphs whose interior changed (rebuilt or
	// edited in place), in ID order; the upload phase runs local
	// fixpoints on them.
	affectedSubs []*Subgraph
	// rebuiltSubs is the subset whose structure (proxies, frame) was
	// rebuilt; their proxies' memoized values are invalidated.
	rebuiltSubs []*Subgraph
	// shortcutActivations counts F applications spent maintaining shortcuts.
	shortcutActivations int64
	// parallelSubs counts the subgraph tasks dispatched to the worker pool
	// during shortcut maintenance (rebuilds + patches).
	parallelSubs int64
}

type flatEdge struct {
	from, to graph.VertexID
	w        float64
}

// layeredUpdate is the first online phase (Section IV-B): bring the layered
// structure in sync with the already-applied batch. A role flip is a
// shortcut edit; only a change to a subgraph's vertex set rebuilds it. Its
// prologue
//
//   - grows the flat ID space for fresh vertices (they join Lup as outliers;
//     by default memberships are frozen until a re-detection lands, as the
//     paper prescribes: "we update the dense subgraphs only when enough ΔG
//     are accumulated" — with Options.AdaptiveCommunities the
//     adaptMembership phase instead migrates memberships incrementally),
//   - queues the flat rows whose out-edges the batch changed, and
//   - decides the structural rebuilds: a subgraph is re-decided (proxies
//     re-allocated, or dissolved when it fails the density test) only when
//     a changed cross edge flips a replication decision, adaptive migration
//     or a landing (of fresh, see Redetect) changed its membership, or one
//     of its members was removed;
//
// settle then carries the queued rows and rebuilds through.
func (l *Layph) layeredUpdate(applied *delta.Applied, fresh *community.Partition) *layeredDiff {
	d := &layeredDiff{}
	l.growForNewVertices(applied)
	l.beginLayering()

	// Migration phase: evolve the community partition with the batch (or
	// land a re-detected one) and migrate subgraph membership before any
	// flat row is refreshed, so the refresh snapshots true pre-batch routing
	// and the refreshed rows already reflect the new memberships. Subgraphs
	// whose membership changed are rebuilt.
	var pending []int32
	switch {
	case fresh != nil:
		pending, d.membershipMoves = l.land(fresh)
	case l.opt.AdaptiveCommunities:
		pending, d.membershipMoves = l.adaptMembership(applied)
	}

	// Rows whose out-edges (or, for degree-dependent weights, out-weights)
	// changed: sources of changed edges and removed vertices together with
	// the entry proxies carrying their edges, and added vertices.
	changedEdges := [2][]graph.DeletedEdge{applied.AddedEdges, applied.RemovedEdges}
	for _, edges := range changedEdges {
		for _, e := range edges {
			l.touchSource(e.From)
		}
	}
	for _, v := range applied.RemovedVertices {
		l.touchSource(v)
	}
	for _, v := range applied.AddedVertices {
		l.touch(v)
	}

	// Structural rebuilds, decided before any row is refreshed: they are
	// the only changes to a subgraph's vertex set.
	subOfSafe := func(v graph.VertexID) int32 {
		if int(v) < len(l.subOf) {
			if c := l.subOf[v]; c != NoSubgraph && l.subs[c] != nil {
				return c
			}
		}
		return NoSubgraph
	}
	// Replication-decision flips on changed cross edges: a host crossed the
	// threshold R into or out of a subgraph (a dead host has no edges).
	r := l.opt.replication()
	flips := func(entry bool, host graph.VertexID, c int32, edges []graph.Edge) bool {
		count := 0
		for _, e := range edges {
			if subOfSafe(e.To) == c {
				count++
			}
		}
		_, proxied := l.proxyOf(entry, c, host)
		return (r > 0 && count >= r) != proxied
	}
	for _, edges := range changedEdges {
		for _, e := range edges {
			su, sv := subOfSafe(e.From), subOfSafe(e.To)
			if sv != NoSubgraph && su != sv && flips(true, e.From, sv, l.g.Out(e.From)) {
				pending = append(pending, sv)
			}
			if su != NoSubgraph && su != sv && flips(false, e.To, su, l.g.In(e.To)) {
				pending = append(pending, su)
			}
		}
	}
	for _, v := range applied.RemovedVertices {
		pending = append(pending, subOfSafe(v))
	}
	d.settledSubs = l.settle(d, pending)
	d.oldSrc, d.oldRows = l.scratch.oldSeen.List, l.scratch.oldRows
	return d
}

// beginLayering resets the working sets of a layering pass and numbers it
// (frame edit snapshots carry the number).
func (l *Layph) beginLayering() {
	l.epoch++
	sc := &l.scratch
	n := l.flatN()
	sc.touched.Reset(n)
	sc.dirty.Reset(n)
	sc.roleSeen.Reset(n)
	sc.oldSeen.Reset(n)
	sc.oldRows = sc.oldRows[:0]
	sc.structural.Reset(0)
	sc.edited.Reset(0)
}

// settle is the structural half of the layered update, shared by every
// update and by New: it carries the queued flat rows (scratch.touched) and
// the pending structural rebuilds (subgraph IDs; NoSubgraph, dissolved and
// repeated entries are skipped) through to a consistent layering, and
// reports the subgraphs it changed. The flat edge diff and the pre-update
// rows go to d; New, which has no states to repair, passes nil. It
//
//   - restructures the pending subgraphs in ID order (restructure),
//   - refreshes every touched flat row once, against the settled proxy
//     tables, collecting the edge-level diff that drives revision-message
//     deduction, and recomputes the touched roles once,
//   - edits the frames of all other subgraphs in place, sorted by subgraph
//     and vertex, and re-runs the density test on those with a role flip;
//     one that fails is dissolved as a structural change, which costs one
//     more refresh-and-roles round for the rows that depended on it,
//   - rebuilds the structurally changed subgraphs and patches the shortcuts
//     of the edited ones (patchShortcuts), fanned out over the worker pool,
//   - refreshes the skeleton rows by one rule: every vertex whose role was
//     recomputed and every entry of an affected subgraph.
func (l *Layph) settle(d *layeredDiff, pending []int32) (out settledSubs) {
	sc := &l.scratch
	var round []int32
	for _, c := range pending {
		if c != NoSubgraph && l.subs[c] != nil && sc.structural.Add(graph.VertexID(c)) {
			round = append(round, c)
		}
	}
	refresh := func(v graph.VertexID, old []engine.WEdge) {
		added, removed := l.mirrorFlatRow(v, old)
		for _, e := range added {
			sc.dirty.Add(e.To)
		}
		for _, e := range removed {
			if int(e.To) < l.flatN() {
				sc.dirty.Add(e.To)
			}
		}
		sc.dirty.Add(v)
		if d == nil {
			return
		}
		// Keep the FIRST (true pre-batch) list if v is refreshed in a later
		// round: the sum-scheme corrections must cancel against the
		// pre-batch contributions.
		if sc.oldSeen.Add(v) {
			sc.oldRows = append(sc.oldRows, old)
		}
		for _, e := range added {
			d.added = append(d.added, flatEdge{from: v, to: e.To, w: e.W})
		}
		for _, e := range removed {
			d.removed = append(d.removed, flatEdge{from: v, to: e.To, w: e.W})
		}
	}
	// Rounds: restructure, refresh, recompute roles, edit frames. Only a
	// subgraph that an edit thinned below the density test starts another
	// round, in which it is dissolved.
	dissolve := false
	for {
		slices.Sort(round)
		for _, c := range round {
			if s := l.restructure(l.subs[c], dissolve); s != nil {
				out.rebuiltSubs = append(out.rebuiltSubs, s)
			}
		}
		// Every touched row is recomputed before any in-list is mirrored.
		// Interleaving the two scatters the fresh rows over the heap, and
		// the initial run of New, which scans every row, measured about 20%
		// slower for it (PageRank, UK ×1).
		olds := make([][]engine.WEdge, len(sc.touched.List))
		for i, v := range sc.touched.List {
			olds[i], l.flatOut[v] = l.flatOut[v], l.computeFlatOut(v)
		}
		for i, v := range sc.touched.List {
			refresh(v, olds[i])
		}
		l.recomputeDirtyRoles()
		if round = l.editFrames(); len(round) == 0 {
			break
		}
		dissolve = true
		sc.touched.Reset(l.flatN())
		sc.dirty.Reset(l.flatN())
	}

	var edited []*Subgraph
	for _, c := range sc.edited.List {
		if s := l.subs[int32(c)]; s != nil && !sc.structural.Has(c) {
			edited = append(edited, s)
		}
	}
	out.affectedSubs = append(slices.Clone(out.rebuiltSubs), edited...)
	sortSubgraphs(out.affectedSubs)
	l.builds += int64(len(out.rebuiltSubs))
	// Each task writes only its own subgraphs and reads structure that is
	// frozen for the duration of the fan-out.
	acts := eachChunk(l, out.affectedSubs, func(ch []*Subgraph) (a int64) {
		for _, s := range ch {
			a += l.maintainShortcuts(s)
		}
		return a
	})
	out.parallelSubs = int64(len(acts))
	for _, a := range acts {
		out.shortcutActivations += a
	}

	// A skeleton row reads the vertex's flat row, its role, the subOf of
	// its targets and, for an entry, its subgraph's shortcuts and member
	// roles. roleSeen holds every refreshed flat row (a target whose subOf
	// moved had its in-neighbours' rows refreshed), every role recompute
	// and every member of a restructured or migrated subgraph; shortcuts
	// and member roles change only in affected subgraphs.
	for _, v := range sc.roleSeen.List {
		l.refreshUpVertex(v)
	}
	for _, s := range out.affectedSubs {
		for _, u := range s.Entries {
			l.refreshUpVertex(u)
		}
	}
	return out
}

// touch queues v's flat row for refresh in the current round.
func (l *Layph) touch(v graph.VertexID) {
	if int(v) < l.flatN() {
		l.scratch.touched.Add(v)
	}
}

// touchSource queues v's row and those of its live entry proxies, which
// carry v's out-edges (with v's degree-dependent weights) into other
// subgraphs.
func (l *Layph) touchSource(v graph.VertexID) {
	l.touch(v)
	for _, r := range l.proxiesOf[v] {
		if r.entry && l.subOf[r.p] != NoSubgraph {
			l.touch(r.p)
		}
	}
}

// restructure re-decides subgraph s from its membership. It queues every
// row that depends on s's layout — its members', their in-neighbours' and
// their entry proxies' in other subgraphs — orphans s's proxies, and then
// either dissolves s (when dissolve is set or evaluateCommunity finds it
// sparse) or re-allocates its proxies. The frame and shortcuts are rebuilt
// after the refresh. Returns s, or nil when it was dissolved.
func (l *Layph) restructure(s *Subgraph, dissolve bool) *Subgraph {
	sc := &l.scratch
	c := s.ID
	for _, v := range s.members() {
		sc.dirty.Add(v)
		l.touchSource(v)
		if int(v) < l.g.Cap() && l.g.Alive(v) {
			for _, ie := range l.g.In(v) {
				if l.subOf[ie.To] != c {
					l.touch(ie.To)
				}
			}
		}
	}
	for _, p := range s.proxies {
		l.subOf[p] = NoSubgraph // orphaned; allocProxy revives it
		sc.dirty.Add(p)
		l.touch(p)
	}
	s.proxies = s.proxies[:0]

	live := l.commVerts[c][:0]
	for _, v := range l.commVerts[c] {
		if l.g.Alive(v) {
			live = append(live, v)
		}
	}
	l.commVerts[c] = live
	var dec denseDecision
	if !dissolve {
		l.evaluations++
		dec = l.evaluateCommunity(live)
	}
	if !dec.dense {
		for _, v := range live {
			l.subOf[v] = NoSubgraph
			sc.dirty.Add(v)
			l.touchSource(v)
		}
		delete(l.subs, c)
		return nil
	}
	for _, h := range dec.entryHosts {
		p := l.allocProxy(true, c, h)
		s.proxies = append(s.proxies, p)
		sc.dirty.Add(p)
		l.touch(p)
		l.touch(h)
	}
	for _, h := range dec.exitHosts {
		p := l.allocProxy(false, c, h)
		s.proxies = append(s.proxies, p)
		sc.dirty.Add(p)
		l.touch(p)
	}
	return s
}

// recomputeDirtyRoles recomputes the roles of the current round's dirty
// vertices, first recording the pre-update role of each one recomputed for
// the first time in the update.
func (l *Layph) recomputeDirtyRoles() {
	sc := &l.scratch
	if n := l.flatN(); len(sc.oldRole) < n {
		sc.oldRole = append(sc.oldRole, make([]Role, n+n/2-len(sc.oldRole))...)
	}
	for _, v := range sc.dirty.List {
		if sc.roleSeen.Add(v) {
			sc.oldRole[v] = l.role[v]
		}
		l.setRole(v, l.roleOf(v))
	}
}

// editFrames applies the current round's row and role changes to the frames
// of the subgraphs that are not restructured, in subgraph then vertex
// order, re-classifies their members, and re-runs the density test on each
// one with a role flip. It returns the subgraphs that failed the test,
// already marked structural.
func (l *Layph) editFrames() []int32 {
	sc := &l.scratch
	sc.cands = sc.cands[:0]
	for _, v := range sc.dirty.List {
		if c := l.subOf[v]; c != NoSubgraph && l.subs[c] != nil && !sc.structural.Has(graph.VertexID(c)) {
			sc.cands = append(sc.cands, v)
		}
	}
	slices.SortFunc(sc.cands, func(a, b graph.VertexID) int {
		if ca, cb := l.subOf[a], l.subOf[b]; ca != cb {
			return cmp.Compare(ca, cb)
		}
		return cmp.Compare(a, b)
	})
	var failed []int32
	for i := 0; i < len(sc.cands); {
		c := l.subOf[sc.cands[i]]
		s := l.subs[c]
		flipped := false
		for ; i < len(sc.cands) && l.subOf[sc.cands[i]] == c; i++ {
			v := sc.cands[i]
			flip := l.role[v] != sc.oldRole[v]
			flipped = flipped || flip
			if l.editFrame(s, v, flip) {
				sc.edited.Add(graph.VertexID(c))
			}
		}
		l.classifyRoles(s)
		if flipped && !denseEnough(len(s.Entries), s.NumExits, s.Local.edges) {
			sc.structural.Add(graph.VertexID(c))
			failed = append(failed, c)
		}
	}
	return failed
}

// maintainShortcuts is the per-subgraph task of the shortcut phase: a
// restructured subgraph is rebuilt, an edited one is patched in place.
func (l *Layph) maintainShortcuts(s *Subgraph) int64 {
	if l.scratch.structural.Has(graph.VertexID(s.ID)) {
		return l.buildSubgraph(s)
	}
	return l.patchShortcuts(s)
}

// growForNewVertices extends all flat-space vectors when the graph's ID
// space grew, which a batch that creates a vertex and deletes it again does
// without listing an added vertex. The invariant "original vertex v is flat
// vertex v" must hold, so when fresh original IDs would collide with
// previously allocated proxy IDs, the proxy segment is relocated past the
// new cap.
func (l *Layph) growForNewVertices(applied *delta.Applied) {
	if capNow := l.g.Cap(); capNow > l.origCap {
		if l.flatN() > l.origCap {
			l.remapProxies(capNow)
		} else {
			l.growFlat(capNow-l.flatN(), NoSubgraph, RoleDead, NoHost)
		}
		l.origCap = capNow
	}
	for _, v := range applied.AddedVertices {
		l.subOf[v] = NoSubgraph
		l.setRole(v, RoleOutlier)
		l.x[v] = l.a.InitState(v)
		if l.parent != nil {
			l.parent[v] = engine.NoParent
		}
	}
}

// remapProxies shifts the proxy segment [origCap, flatN) to start at
// newCap, past the grown original-vertex segment. Proxy state (x, parents,
// adjacency) moves with the proxies.
func (l *Layph) remapProxies(newCap int) {
	oldN, shift := l.flatN(), graph.VertexID(newCap-l.origCap)
	newN := oldN + int(shift)
	mapID := func(v graph.VertexID) graph.VertexID {
		if int(v) >= l.origCap && int(v) < oldN {
			return v + shift
		}
		return v
	}
	move := func(v int) int { return int(mapID(graph.VertexID(v))) }
	mapAll := func(vs []graph.VertexID) {
		for i, v := range vs {
			vs[i] = mapID(v)
		}
	}
	moveRows := func(rows [][]engine.WEdge) [][]engine.WEdge {
		rows = moved(rows, newN, nil, move)
		for v, row := range rows {
			out := make([]engine.WEdge, len(row))
			for i, e := range row {
				out[i] = engine.WEdge{To: mapID(e.To), W: e.W}
			}
			rows[v] = out
		}
		return rows
	}
	l.subOf = moved(l.subOf, newN, NoSubgraph, move)
	l.role = moved(l.role, newN, RoleDead, move)
	l.proxyHost = moved(l.proxyHost, newN, NoHost, move)
	l.x = moved(l.x, newN, l.sr.Zero(), move)
	l.localIdx = moved[int32](nil, newN, -1, move)
	if l.parent != nil {
		l.parent = moved(l.parent, newN, engine.NoParent, move)
		mapAll(l.parent)
	}
	l.flatOut, l.flatIn, l.upOut = moveRows(l.flatOut), moveRows(l.flatIn), moveRows(l.upOut)
	for _, refs := range l.proxiesOf {
		for i := range refs {
			refs[i].p = mapID(refs[i].p)
		}
	}
	for _, s := range l.subs {
		mapAll(s.proxies)
		mapAll(s.Entries)
		mapAll(s.Internal)
		if s.Local != nil {
			mapAll(s.Local.ids)
			for i, v := range s.Local.ids {
				l.localIdx[v] = int32(i)
			}
		}
		// Shortcut vectors and parents live in compact-ID space and survive
		// the remap untouched.
	}
}

// moved returns vec's entries at their indices under move in an n-sized
// vector whose other slots hold fill.
func moved[T any](vec []T, n int, fill T, move func(int) int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = fill
	}
	for v, x := range vec {
		out[move(v)] = x
	}
	return out
}
