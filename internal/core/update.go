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
	// membershipMoves counts the vertices a landing re-detection migrated
	// during this update.
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
//     memberships are frozen until a re-detection lands, as the paper
//     prescribes: "we update the dense subgraphs only when enough ΔG are
//     accumulated"),
//   - queues the flat rows whose out-edges the batch changed, and
//   - decides the structural rebuilds: a subgraph is re-decided (proxies
//     re-allocated, or dissolved when it fails the density test) only when
//     a changed cross edge flips a replication decision, a landing (of
//     fresh, see Redetect) changed its membership, or one of its members
//     was removed;
//
// settle then carries the queued rows and rebuilds through.
func (l *Layph) layeredUpdate(applied *delta.Applied, fresh *community.Partition) *layeredDiff {
	d := &layeredDiff{}
	l.growForNewVertices(applied)
	l.beginLayering()

	// Landing: make a re-detected partition the engine's and migrate
	// subgraph membership before any flat row is refreshed, so the refresh
	// snapshots true pre-batch routing and the refreshed rows already
	// reflect the new memberships. Subgraphs whose membership changed are
	// rebuilt.
	var pending []int32
	if fresh != nil {
		pending, d.membershipMoves = l.land(fresh)
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
//     of the edited ones (patchShortcuts), fanned out over the worker pool;
//     each subgraph's task then refreshes the skeleton rows of those of its
//     entries whose shortcuts can have changed (maintainShortcuts),
//   - refreshes the skeleton rows of every vertex whose role was recomputed
//     (roleSeen), in pool chunks after the fan-out.
//
// New's call (d == nil) lays the first round's flat rows and all skeleton
// rows out in one array each, in vertex order, and refreshes no row.
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
		// Construction's first round writes every row into one array in
		// touched order — the live vertices, then the proxies, ascending —
		// as engine.BuildFrame does, so the initial run walks the edges in
		// order. A row holds at most its vertex's out-degree, plus one link
		// per entry proxy of the vertex, plus one edge per exit proxy, so
		// the array never grows. Any other refresh stores an exact-size
		// copy.
		var packed []engine.WEdge
		if d == nil && !dissolve {
			packed = make([]engine.WEdge, 0, l.g.NumEdges()+l.flatN()-l.origCap)
		}
		for _, v := range sc.touched.List {
			old := l.flatOut[v]
			if packed != nil {
				lo := len(packed)
				packed = l.appendFlatOut(packed, v)
				l.flatOut[v] = packedRow(packed, lo)
			} else {
				sc.rowBuf = l.appendFlatOut(sc.rowBuf[:0], v)
				l.flatOut[v] = exactRow(sc.rowBuf)
			}
			refresh(v, old)
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
	// Each task writes only its own subgraphs (and their entries' skeleton
	// rows) and reads structure that is frozen for the duration of the
	// fan-out.
	acts := eachChunk(l, out.affectedSubs, func(ch []*Subgraph) (a int64) {
		ts := l.getTask()
		defer l.putTask(ts)
		for _, s := range ch {
			a += l.maintainShortcuts(s, ts, d != nil)
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
	// and member roles change only in affected subgraphs, whose tasks
	// refreshed the rest.
	if d == nil {
		l.packUpOut()
		return out
	}
	l.refreshUpRows(sc.roleSeen.List)
	return out
}

// minUpChunk is the fewest skeleton rows refreshUpRows hands one pool task:
// a row costs well under a microsecond, so a smaller chunk would not repay
// its dispatch.
const minUpChunk = 64

// refreshUpRows refreshes the skeleton rows of vs, which holds no vertex
// twice, in contiguous chunks over the pool (chunksPerWorker per worker,
// each of at least minUpChunk rows). A task writes the rows of its own
// chunk and reads only settled structure.
func (l *Layph) refreshUpRows(vs []graph.VertexID) {
	refresh := func(ch []graph.VertexID) {
		ts := l.getTask()
		defer l.putTask(ts)
		for _, v := range ch {
			l.refreshUpVertex(v, &ts.row)
		}
	}
	if n := min(l.pool.Size()*chunksPerWorker, len(vs)/minUpChunk); n <= 1 {
		refresh(vs)
	} else {
		grp := l.pool.Group()
		for i := range n {
			ch := vs[i*len(vs)/n : (i+1)*len(vs)/n]
			grp.Go(func() { refresh(ch) })
		}
		grp.Wait()
	}
	l.upRows.Add(int64(len(vs)))
}

// packUpOut lays every skeleton row into one array in vertex order, as the
// flat rows are laid out at construction. A first pass sizes the array, so
// the rows are stored once.
func (l *Layph) packUpOut() {
	var buf []engine.WEdge
	n := 0
	for v := range l.flatN() {
		buf = l.appendUpOut(buf[:0], graph.VertexID(v))
		n += len(buf)
	}
	packed := make([]engine.WEdge, 0, n)
	for v := range l.flatN() {
		lo := len(packed)
		packed = l.appendUpOut(packed, graph.VertexID(v))
		l.upOut[v] = packedRow(packed, lo)
	}
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

// maintainShortcuts is the per-subgraph task of the shortcut phase, run on
// the task's working set ts: a restructured subgraph is rebuilt, an edited
// one is patched in place. With rows set (every update; New packs all rows
// instead), the task then refreshes the skeleton rows of s's entries that
// can have changed: all of them after a rebuild, else those patchShortcuts
// reports. It skips the entries in roleSeen, whose rows settle refreshes
// after the fan-out. The task owns these rows, and nothing appendUpOut
// reads of them changes while the fan-out runs. Returns the F applications
// spent.
func (l *Layph) maintainShortcuts(s *Subgraph, ts *taskScratch, rows bool) int64 {
	var acts int64
	all := true
	if l.scratch.structural.Has(graph.VertexID(s.ID)) {
		acts = l.buildSubgraph(s, ts)
	} else {
		acts, all = l.patchShortcuts(s, ts)
	}
	if !rows {
		return acts
	}
	entries := ts.moved
	if all {
		entries = s.Entries
	}
	n := 0
	for _, u := range entries {
		if !l.scratch.roleSeen.Has(u) {
			l.refreshUpVertex(u, &ts.row)
			n++
		}
	}
	l.upRows.Add(int64(n))
	return acts
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
// adjacency) moves with the proxies, within each vector's spare capacity
// where it has some; rows stay where they are and only their targets are
// renamed. No other slice shares a live row: frame rows and their edit
// snapshots are in compact IDs, and the rows scratch.oldRows still holds
// were replaced, not edited, and are read only by the update that took
// them.
func (l *Layph) remapProxies(newCap int) {
	lo, oldN, shift := l.origCap, l.flatN(), newCap-l.origCap
	mapID := func(v graph.VertexID) graph.VertexID {
		if int(v) >= lo && int(v) < oldN {
			return v + graph.VertexID(shift)
		}
		return v
	}
	mapAll := func(vs []graph.VertexID) {
		for i, v := range vs {
			vs[i] = mapID(v)
		}
	}
	for _, rows := range [][][]engine.WEdge{l.flatOut, l.flatIn, l.upOut} {
		for _, row := range rows {
			for i := range row {
				row[i].To = mapID(row[i].To)
			}
		}
	}
	l.flatOut = shifted(l.flatOut, lo, shift, nil)
	l.flatIn = shifted(l.flatIn, lo, shift, nil)
	l.upOut = shifted(l.upOut, lo, shift, nil)
	l.subOf = shifted(l.subOf, lo, shift, NoSubgraph)
	l.role = shifted(l.role, lo, shift, RoleDead)
	l.proxyHost = shifted(l.proxyHost, lo, shift, NoHost)
	l.x = shifted(l.x, lo, shift, l.sr.Zero())
	// A member's compact index moves with it.
	l.localIdx = shifted(l.localIdx, lo, shift, -1)
	if l.parent != nil {
		l.parent = shifted(l.parent, lo, shift, engine.NoParent)
		mapAll(l.parent)
	}
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
		}
		// Shortcut vectors and parents live in compact-ID space and survive
		// the remap untouched.
	}
}

// shifted moves vec's entries from index lo on shift slots up, growing vec
// by shift (in place when its capacity allows), and fills the freed slots
// [lo, lo+shift) with fill.
func shifted[T any](vec []T, lo, shift int, fill T) []T {
	n := len(vec)
	vec = slices.Grow(vec, shift)[:n+shift]
	copy(vec[lo+shift:], vec[lo:n])
	for i := lo; i < lo+shift; i++ {
		vec[i] = fill
	}
	return vec
}
