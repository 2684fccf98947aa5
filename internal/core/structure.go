package core

import (
	"slices"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
)

// denseEnough is the paper's density test (Definition 2), |V_I|·|V_O| <
// |E_i|: a subgraph keeps its shortcuts only while its internal edges
// outnumber the entry×exit pairs they stand for. evaluateCommunity applies
// it to a community's prospective layout, settle to the frame of a
// subgraph whose roles an update edited.
func denseEnough(entries, exits, internalEdges int) bool {
	return entries*exits < internalEdges
}

// denseDecision is the outcome of evaluating one community for dense-
// subgraph status (Definition 2) including prospective vertex replication.
type denseDecision struct {
	dense      bool
	entryHosts []graph.VertexID // external sources to replicate (entry side)
	exitHosts  []graph.VertexID // external targets to replicate (exit side)
}

// evaluateCommunity counts the boundary vertices and internal edges of a
// community's live members as they would look after replication, and
// applies the density test.
func (l *Layph) evaluateCommunity(members []graph.VertexID) denseDecision {
	var d denseDecision
	if len(members) < 2 {
		return d
	}
	sc := &l.scratch
	sc.members.Reset(0)
	for _, v := range members {
		sc.members.Add(v)
	}
	// One external endpoint per cross edge: the sources of edges into the
	// community and the targets of edges out of it.
	srcs, dsts := sc.extSrc[:0], sc.extDst[:0]
	internalEdges := 0
	for _, v := range members {
		for _, e := range l.g.Out(v) {
			if sc.members.Has(e.To) {
				internalEdges++
			} else {
				dsts = append(dsts, e.To)
			}
		}
		for _, e := range l.g.In(v) {
			if !sc.members.Has(e.To) {
				srcs = append(srcs, e.To)
			}
		}
	}
	sc.extSrc, sc.extDst = srcs, dsts
	r := l.opt.replication()
	d.entryHosts, d.exitHosts = replicated(srcs, r), replicated(dsts, r)

	// Post-replication boundary/edge counts: an edge from a replicated host
	// becomes internal (it now targets vertices from the in-subgraph proxy),
	// so it stops conferring entry status; symmetrically for exits. boundary
	// applies this to one member's in- or out-edges and returns 1 when the
	// member stays a boundary vertex on that side.
	boundary := func(edges []graph.Edge, hosts []graph.VertexID) int {
		n := 0
		for _, e := range edges {
			if sc.members.Has(e.To) {
				continue
			}
			if _, prox := slices.BinarySearch(hosts, e.To); prox {
				internalEdges++
			} else {
				n = 1
			}
		}
		return n
	}
	entries, exits := len(d.entryHosts), len(d.exitHosts)
	for _, v := range members {
		entries += boundary(l.g.In(v), d.entryHosts)
		exits += boundary(l.g.Out(v), d.exitHosts)
	}
	d.dense = denseEnough(entries, exits, internalEdges)
	return d
}

// replicated sorts ext, the external endpoints of a community's cross
// edges on one side, and returns in ascending order the hosts with at least
// r edges: the vertices to replicate (none when r is 0, replication off).
func replicated(ext []graph.VertexID, r int) []graph.VertexID {
	if r == 0 {
		return nil
	}
	slices.Sort(ext)
	var hosts []graph.VertexID
	for i := 0; i < len(ext); {
		j := i + 1
		for j < len(ext) && ext[j] == ext[i] {
			j++
		}
		if j-i >= r {
			hosts = append(hosts, ext[i])
		}
		i = j
	}
	return hosts
}

// proxyOf returns host's live proxy in subgraph sub on the entry (or exit)
// side.
func (l *Layph) proxyOf(entry bool, sub int32, host graph.VertexID) (graph.VertexID, bool) {
	for _, r := range l.proxiesOf[host] {
		if r.sub == sub && r.entry == entry && l.subOf[r.p] != NoSubgraph {
			return r.p, true
		}
	}
	return 0, false
}

// allocProxy returns host's entry (or exit) proxy in subgraph sub. It
// revives an orphaned one in place and allocates a fresh flat vertex when
// the host never had one there. Orphaning a proxy is setting its subOf to
// NoSubgraph.
//
// The order of a host's refs reaches nothing but the order in which
// touchSource queues the host's entry proxies, and that order cannot reach
// the layering: the proxies sit in distinct subgraphs and an entry proxy's
// row targets members of its own, so their refreshes append to disjoint
// flat in-rows, and a drop from one and an append from another commute.
// The touched order also orders the layered diff (d.added, d.removed and
// the old rows), which feeds sum revisions and min-scheme reset roots; but
// the revision and offer targets of a host's entry proxies are disjoint
// for the same reason, so their order among them cannot change any state
// or parent either.
func (l *Layph) allocProxy(entry bool, sub int32, host graph.VertexID) graph.VertexID {
	refs := l.proxiesOf[host]
	for _, r := range refs {
		if r.sub == sub && r.entry == entry {
			l.subOf[r.p] = sub
			return r.p
		}
	}
	p := graph.VertexID(l.flatN())
	l.proxiesOf[host] = append(refs, proxyRef{p: p, sub: sub, entry: entry})
	l.growFlat(1, sub, RoleInternal, host) // the role is refined by recomputeDirtyRoles
	return p
}

// growFlat appends k slots to every flat-space vector: vertices with no
// state, parent or rows, outside every frame. Each vector is reallocated
// at most once.
func (l *Layph) growFlat(k int, sub int32, role Role, host graph.VertexID) {
	n := l.flatN()
	l.subOf = inc.GrowVectors(l.subOf, n+k, sub)
	l.role = inc.GrowVectors(l.role, n+k, RoleDead)
	for v := n; v < n+k; v++ {
		l.setRole(graph.VertexID(v), role)
	}
	l.proxyHost = inc.GrowVectors(l.proxyHost, n+k, host)
	l.localIdx = inc.GrowVectors(l.localIdx, n+k, -1)
	l.flatOut = inc.GrowVectors(l.flatOut, n+k, nil)
	l.flatIn = inc.GrowVectors(l.flatIn, n+k, nil)
	l.upOut = inc.GrowVectors(l.upOut, n+k, nil)
	l.x = inc.GrowVectors(l.x, n+k, l.sr.Zero())
	if l.parent != nil {
		l.parent = inc.GrowVectors(l.parent, n+k, engine.NoParent)
	}
}

// appendFlatOut appends the flat out-list of a flat vertex, derived from
// the graph and the current proxies, to out. Precedence for a
// cross-subgraph edge that qualifies for both sides: the exit-side proxy
// wins (the edge is swallowed into the source's subgraph).
func (l *Layph) appendFlatOut(out []engine.WEdge, v graph.VertexID) []engine.WEdge {
	if !l.flatAlive(v) {
		return out
	}
	if int(v) >= l.g.Cap() {
		return l.appendProxyOut(out, v)
	}
	sv := l.subOf[v]
	var linked []int32 // subgraphs v already links to through its entry proxy
	for _, e := range l.g.Out(v) {
		w := l.a.EdgeWeight(l.g, v, e)
		st := l.subOf[e.To]
		if sv != NoSubgraph && st != sv {
			if p, ok := l.proxyOf(false, sv, e.To); ok {
				out = append(out, engine.WEdge{To: p, W: w})
				continue
			}
		}
		if st != NoSubgraph && st != sv {
			if p, ok := l.proxyOf(true, st, v); ok {
				if !slices.Contains(linked, st) {
					linked = append(linked, st)
					out = append(out, engine.WEdge{To: p, W: l.sr.One()})
				}
				continue // the real edge belongs to the proxy's out-list
			}
		}
		out = append(out, engine.WEdge{To: e.To, W: w})
	}
	return out
}

// appendProxyOut appends a proxy's out-list to out: an exit proxy links to
// its host; an entry proxy carries the host's (non-exit-proxied) edges into
// the subgraph, with the host's original semiring weights.
func (l *Layph) appendProxyOut(out []engine.WEdge, p graph.VertexID) []engine.WEdge {
	host := l.proxyHost[p]
	sub := l.subOf[p]
	if q, ok := l.proxyOf(false, sub, host); ok && q == p {
		return append(out, engine.WEdge{To: host, W: l.sr.One()})
	}
	if !l.g.Alive(host) {
		return out
	}
	sh := l.subOf[host]
	for _, e := range l.g.Out(host) {
		if l.subOf[e.To] != sub {
			continue
		}
		// Exit-side precedence: the host's subgraph may have swallowed this
		// edge into an exit proxy already.
		if sh != NoSubgraph {
			if _, ok := l.proxyOf(false, sh, e.To); ok {
				continue
			}
		}
		out = append(out, engine.WEdge{To: e.To, W: l.a.EdgeWeight(l.g, host, e)})
	}
	return out
}

// mirrorFlatRow diffs v's recomputed flat out-list against its previous
// list old, updates the mirrored in-lists, and returns the diff (the diff
// slices are reused by the next call).
func (l *Layph) mirrorFlatRow(v graph.VertexID, old []engine.WEdge) (added, removed []engine.WEdge) {
	added, removed = l.scratch.rows.diff(old, l.flatOut[v])
	for _, e := range removed {
		l.flatIn[e.To] = dropEdge(l.flatIn[e.To], v)
	}
	for _, e := range added {
		l.flatIn[e.To] = append(l.flatIn[e.To], engine.WEdge{To: v, W: e.W})
	}
	return added, removed
}

func dropEdge(list []engine.WEdge, to graph.VertexID) []engine.WEdge {
	for i := range list {
		if list[i].To == to {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// roleOf classifies a flat vertex from the flat adjacency and subgraph
// membership.
func (l *Layph) roleOf(v graph.VertexID) Role {
	if !l.flatAlive(v) {
		return RoleDead
	}
	sv := l.subOf[v]
	if sv == NoSubgraph {
		return RoleOutlier
	}
	entry, exit := false, false
	for _, e := range l.flatIn[v] {
		if l.subOf[e.To] != sv {
			entry = true
			break
		}
	}
	for _, e := range l.flatOut[v] {
		if l.subOf[e.To] != sv {
			exit = true
			break
		}
	}
	switch {
	case entry && exit:
		return RoleEntryExit
	case entry:
		return RoleEntry
	case exit:
		return RoleExit
	}
	return RoleInternal
}

// buildLocalFrame projects the subgraph's internal flat edges onto the
// compact IDs of its new frame (classifyMembers). It (re)assigns the
// members' slots in the shared localIdx vector; concurrent builds of
// different subgraphs write disjoint slots because memberships are
// disjoint.
func (l *Layph) buildLocalFrame(s *Subgraph) {
	lf := s.Local
	for ci, v := range lf.ids {
		l.localIdx[v] = int32(ci)
	}
	lf.out = make([][]engine.WEdge, len(lf.ids))
	for ci, v := range lf.ids {
		for _, e := range l.flatOut[v] {
			if tj, ok := l.compactID(s, e.To); ok {
				lf.out[ci] = append(lf.out[ci], engine.WEdge{To: graph.VertexID(tj), W: e.W})
			}
		}
		lf.edges += len(lf.out[ci])
	}
}

// deduceShortcuts runs Equation (6) for every entry vertex of the subgraph
// and reads off the aggregates as shortcut weights. A sum-scheme subgraph
// solves for all its entries at once (solveShortcuts); a min-scheme one
// injects the semiring unit at each entry in turn and runs the local
// fixpoint over the compact frame (deduceEntry). It runs inside the
// caller's subgraph task, on its working set ts. Returns the F
// applications spent, which a solve does not count.
func (l *Layph) deduceShortcuts(s *Subgraph, ts *taskScratch) int64 {
	lf := s.Local
	k := lf.size()
	s.scVec = make([][]float64, k)
	// Shortcut weights count internal paths whose intermediate vertices are
	// not entries (the source included): the unit message is emitted over
	// the source's out-edges directly and the aggregation runs on the fully
	// absorbing frame. Through-entry and revisiting paths are then covered
	// exactly once by shortcut composition on Lup (including the self-
	// shortcut for sum-semiring cycles back to the entry).
	frame := l.absorbing(s)
	if !l.sr.Idempotent() {
		s.scParent = nil
		l.solveShortcuts(s, frame, ts)
		return 0
	}
	s.scParent = make([][]graph.VertexID, k)
	var acts int64
	for _, u := range s.Entries {
		r := l.deduceEntry(s, frame, u, ts)
		cu := l.localIdx[u]
		acts += r.acts
		s.scVec[cu] = r.vec
		s.scParent[cu] = r.par
	}
	return acts
}

// solveShortcuts deduces a sum-scheme subgraph's shortcut vectors
// directly. Entry u's vector v solves v = s_u + v·A, where s_u is u's
// seeding row and A the absorbing frame's matrix, so vᵀ solves Mᵀ·vᵀ =
// s_uᵀ with M = I − A. The task's buffer ts.lu holds Mᵀ, factored once in
// place into L·U without pivoting, and each entry's vector is one forward
// and one back substitution.
//
// The precondition is the contraction the iterative fixpoint needs as
// well: every row of A sums to less than 1 (at most the damping factor),
// so M is strictly row diagonally dominant and Mᵀ strictly column
// diagonally dominant, which keeps every pivot positive. Mᵀ is an
// M-matrix (its off-diagonal entries are −w ≤ 0), so L and U keep that
// sign pattern and every substitution adds non-negative terms: nothing
// cancels, and a slot no internal path reaches is only ever written from
// exact zeros, so it stays exactly 0.
func (l *Layph) solveShortcuts(s *Subgraph, frame engine.Rows, ts *taskScratch) {
	lf := s.Local
	k := lf.size()
	m := rawBuf(&ts.lu, k*k)
	clear(m)
	// Mᵀ[t][c] = δ(t, c) − Σ w over the edges c→t of A: multi-edges and
	// self-loops accumulate, and an entry's row of A is empty.
	for c := range k {
		m[c*k+c] = 1
		for _, e := range frame.Row(graph.VertexID(c)) {
			m[int(e.To)*k+c] -= e.W
		}
	}
	for p := range k {
		pivot, rp := m[p*k+p], m[p*k+p+1:p*k+k]
		for i := p + 1; i < k; i++ {
			f := m[i*k+p]
			if f == 0 {
				continue
			}
			f /= pivot
			m[i*k+p] = f
			ri := m[i*k+p+1 : i*k+k]
			for j, w := range rp {
				ri[j] -= f * w
			}
		}
	}
	for _, u := range s.Entries {
		cu := l.localIdx[u]
		x := make([]float64, k)
		for _, e := range lf.out[cu] {
			x[e.To] += e.W // the unit message 1̄ ⊗ w
		}
		// L·y = s_u, L unit lower triangular.
		for j := range k {
			if xj := x[j]; xj != 0 {
				for i := j + 1; i < k; i++ {
					x[i] -= m[i*k+j] * xj
				}
			}
		}
		// U·v = y.
		for j := k - 1; j >= 0; j-- {
			x[j] /= m[j*k+j]
			if xj := x[j]; xj != 0 {
				for i := range j {
					x[i] -= m[i*k+j] * xj
				}
			}
		}
		s.scVec[cu] = x
	}
}

// entryRes is one entry's deduced min-scheme shortcut vector, its compact
// dependency parents and the F applications spent.
type entryRes struct {
	vec  []float64
	par  []graph.VertexID
	acts int64
}

// deduceEntry runs Equation (6) for entry u of a min-scheme subgraph over
// the absorbing frame, on the task's runner.
func (l *Layph) deduceEntry(s *Subgraph, frame engine.Rows, u graph.VertexID, ts *taskScratch) entryRes {
	lf := s.Local
	k := lf.size()
	zero := l.sr.Zero()
	cu := l.localIdx[u]
	r := entryRes{vec: make([]float64, k), par: make([]graph.VertexID, k)}
	for j := range r.vec {
		r.vec[j] = zero
		r.par[j] = engine.NoParent
	}
	// u's own edges seed the vector, so a value they set has u as its
	// parent.
	for _, e := range lf.out[cu] {
		ts.run.Seed(e.To, l.sr.Times(l.sr.One(), e.W), graph.VertexID(cu))
		r.acts++
	}
	res := ts.run.Run(frame, r.vec, r.par, engine.Options{})
	r.acts += res.Activations
	return r
}

// editFrame re-syncs member v's row in the frame of its (non-rebuilt)
// subgraph s with v's flat row, in place. The first edit of a vertex in an
// update snapshots its previous row for patchShortcuts; roleFlip forces the
// snapshot even when the row did not move, since a flip moves the vertex
// in or out of the absorbing view and between the boundary and internal
// classes. Reports whether anything was recorded.
func (l *Layph) editFrame(s *Subgraph, v graph.VertexID, roleFlip bool) bool {
	lf := s.Local
	ci := graph.VertexID(l.localIdx[v])
	row := l.scratch.rowBuf[:0]
	for _, e := range l.flatOut[v] {
		if tj, ok := l.compactID(s, e.To); ok {
			row = append(row, engine.WEdge{To: graph.VertexID(tj), W: e.W})
		}
	}
	l.scratch.rowBuf = row
	same := sameRow(lf.out[ci], row)
	if same && !roleFlip {
		return false
	}
	lf.snapshot(ci, l.epoch)
	if !same {
		lf.edges += len(row) - len(lf.out[ci])
		lf.out[ci] = slices.Clone(row)
	}
	return true
}

// snapshot records compact vertex ci's current row at its first edit in
// the update numbered epoch.
func (lf *localFrame) snapshot(ci graph.VertexID, epoch uint32) {
	ed := &lf.edit
	if ed.epoch != epoch {
		ed.done()
		ed.epoch = epoch
	}
	if ed.mark == nil {
		ed.mark = make([]uint32, lf.size())
	}
	if ed.mark[ci] == epoch {
		return
	}
	ed.mark[ci] = epoch
	ed.cis = append(ed.cis, ci)
	ed.oldOut = append(ed.oldOut, lf.out[ci])
}

// done drops the snapshots (and the old rows they keep alive).
func (ed *frameEdit) done() {
	clear(ed.oldOut)
	ed.cis, ed.oldOut = ed.cis[:0], ed.oldOut[:0]
}

// cDiff is an edge change in a subgraph's compact ID space.
type cDiff struct {
	from, to graph.VertexID
	w        float64
}

// compactDiff is a set of compact edge changes; a reweighted edge is both
// deleted (old weight) and added (new weight).
type compactDiff struct {
	add, del []cDiff
}

func (cd *compactDiff) empty() bool { return len(cd.add) == 0 && len(cd.del) == 0 }

// diffRow appends the change from row old to row fresh of compact source
// from. Rows are subgraph-sized, so a pairwise scan beats an index.
func (cd *compactDiff) diffRow(from graph.VertexID, old, fresh []engine.WEdge) {
	if sameRow(old, fresh) {
		return
	}
	for _, e := range old {
		if !slices.Contains(fresh, e) {
			cd.del = append(cd.del, cDiff{from, e.To, e.W})
		}
	}
	for _, e := range fresh {
		if !slices.Contains(old, e) {
			cd.add = append(cd.add, cDiff{from, e.To, e.W})
		}
	}
}

// seedDiff is a change to a persisting entry's own out-row, which seeds its
// shortcut vector.
type seedDiff struct {
	cu graph.VertexID
	compactDiff
}

// patchShortcuts brings a non-rebuilt subgraph's memoized shortcuts in line
// with the frame edits of the current update, so that they equal Equation
// (6)'s deduction over the current frame. A sum-scheme subgraph with edits
// is deduced afresh (deduceShortcuts), as construction and rebuilds do. A
// min-scheme one gets the paper's Section IV-B deletion, addition and
// weight-update cases, applied as the net change of the absorbing frame:
//
//   - a vertex that became an entry left the absorbing frame (its row is a
//     deleted diff) and gets one fresh deduction;
//   - a vertex that stopped being an entry re-joined it (an added diff) and
//     its vector is dropped;
//   - every persisting entry absorbs the frame diff, plus any change to its
//     own seeding row, with ⊥-cancellation revisions (updateEntryMin).
//
// An edited vertex's old absorbing row is empty when its pre-update role
// (scratch.oldRole, recorded for every vertex editFrames edits) was an
// entry role, and its snapshot row otherwise. It runs in s's pool task, on
// the task's working set ts.
//
// It also reports which of s's entries can have a changed skeleton row
// (appendUpOut), for the same task to refresh. all is set when every entry
// can: the sum scheme re-deduced the vectors, or a member's role changed
// (the rows filter shortcut targets by role; a fresh entry is such a
// member). Otherwise ts.moved lists the entries whose vector moved at a
// slot of another non-internal member (updateEntryMin). Returns the F
// applications spent.
func (l *Layph) patchShortcuts(s *Subgraph, ts *taskScratch) (acts int64, all bool) {
	ts.moved = ts.moved[:0]
	lf := s.Local
	ed := &lf.edit
	if ed.epoch != l.epoch || len(ed.cis) == 0 {
		return 0, false
	}
	defer ed.done()
	if !l.sr.Idempotent() {
		return l.deduceShortcuts(s, ts), true
	}

	frame := l.absorbing(s)
	var ab compactDiff
	var seeds []seedDiff
	var fresh []graph.VertexID
	for i, ci := range ed.cis {
		v := lf.ids[ci]
		var oldRow []engine.WEdge // the old absorbing row: none for an entry
		oldRole := l.scratch.oldRole[v]
		if !oldRole.IsEntry() {
			oldRow = ed.oldOut[i]
		}
		all = all || l.role[v] != oldRole
		ab.diffRow(ci, oldRow, frame.Row(ci))
		entry, hasVec := l.role[v].IsEntry(), s.scVec[ci] != nil
		switch {
		case entry && !hasVec:
			fresh = append(fresh, v)
		case !entry && hasVec:
			s.scVec[ci] = nil
			s.scParent[ci] = nil
		case entry:
			sd := seedDiff{cu: ci}
			sd.diffRow(ci, ed.oldOut[i], lf.out[ci])
			if !sd.empty() {
				seeds = append(seeds, sd)
			}
		}
	}

	for _, u := range s.Entries {
		cu := l.localIdx[u]
		if s.scVec[cu] == nil {
			continue // a fresh entry, deduced below
		}
		var seed compactDiff
		for _, sd := range seeds {
			if sd.cu == graph.VertexID(cu) {
				seed = sd.compactDiff
			}
		}
		if ab.empty() && seed.empty() {
			continue
		}
		a, moved := l.updateEntryMin(s, cu, frame, &ab, &seed, ts)
		acts += a
		if moved {
			ts.moved = append(ts.moved, u)
		}
	}
	for _, u := range fresh {
		r := l.deduceEntry(s, frame, u, ts)
		cu := l.localIdx[u]
		s.scVec[cu] = r.vec
		s.scParent[cu] = r.par
		acts += r.acts
	}
	return acts, all
}

// updateEntryMin applies ⊥-cancellation resets and recomputation for entry
// cu's vector: the dependency subtrees hanging off removed edges are reset,
// re-offered from intact in-neighbours and cu's own row, added edges offer
// their candidates, and a local fixpoint settles the rest, setting the
// parents of what it changes. Returns the F applications spent, and
// whether a reset or changed slot belongs to a non-internal member other
// than cu, which is when cu's skeleton row can have changed.
func (l *Layph) updateEntryMin(s *Subgraph, cu int32, frame engine.Rows, ab, seed *compactDiff, ts *taskScratch) (acts int64, moved bool) {
	lf := s.Local
	vec := s.scVec[cu]
	par := s.scParent[cu]
	zero, one := l.sr.Zero(), l.sr.One()

	// The reset set is the dependency subtrees of the targets of cu's
	// removed seeding edges and of removed dependency edges. The walk
	// follows the edited frame: absorbing rows, plus cu's own seeding row
	// (cu is absorbing, so its values' children hang off that row).
	self := graph.VertexID(cu)
	ts.roots = ts.roots[:0]
	for _, e := range seed.del {
		ts.roots = append(ts.roots, e.to)
	}
	for _, e := range ab.del {
		if par[e.to] == e.from {
			ts.roots = append(ts.roots, e.to)
		}
	}
	ts.trim.Trim(vec, par, zero, &delta.Applied{}, ts.roots, func(c graph.VertexID, visit func(graph.VertexID)) {
		for _, e := range frame.Row(c) {
			visit(e.To)
		}
		if c == self {
			for _, e := range lf.out[cu] {
				visit(e.To)
			}
		}
	})
	tagged := &ts.trim.Tagged
	resets := tagged.List
	// upSlot reports whether cs holds a slot cu's skeleton row reads.
	upSlot := func(cs []graph.VertexID) bool {
		for _, c := range cs {
			if c != self && l.role[lf.ids[c]] != RoleInternal {
				return true
			}
		}
		return false
	}
	moved = upSlot(resets)

	seeded := false
	relax := func(c, src graph.VertexID, m float64) {
		acts++
		if m != zero && l.sr.Plus(vec[c], m) != vec[c] {
			ts.run.Seed(c, m, src)
			ts.run.Activate(c)
			seeded = true
		}
	}
	// Offers for reset targets from intact sources: cu's direct edges plus
	// non-tagged absorbing-frame in-neighbors.
	for _, c := range resets {
		for _, e := range lf.out[cu] {
			if e.To == c {
				relax(c, self, l.sr.Times(one, e.W))
			}
		}
		l.absorbIn(s, c, func(a graph.VertexID, w float64) {
			if !tagged.Has(a) && vec[a] != zero {
				relax(c, a, l.sr.Times(vec[a], w))
			}
		})
	}
	// Compensation candidates from added edges.
	for _, e := range seed.add {
		relax(e.to, self, l.sr.Times(one, e.w))
	}
	for _, e := range ab.add {
		if vec[e.from] != zero {
			relax(e.to, e.from, l.sr.Times(vec[e.from], e.w))
		}
	}
	if seeded {
		// The run sets the parent of every value it changes: the in-run
		// sender, or the seed's source.
		res := ts.run.Run(frame, vec, par, engine.Options{})
		acts += res.Activations
		moved = moved || upSlot(res.Changed)
	}
	return acts, moved
}

// appendUpOut appends v's upper-layer out-list to out: flat edges leaving
// its subgraph (or any flat edge, for outliers) plus, for entries, their
// shortcuts (isShortcut) to non-internal members, read off the vector in
// compact order.
func (l *Layph) appendUpOut(out []engine.WEdge, v graph.VertexID) []engine.WEdge {
	if !l.flatAlive(v) || !l.onUp(v) {
		return out
	}
	sv := l.subOf[v]
	for _, e := range l.flatOut[v] {
		if sv != NoSubgraph && l.subOf[e.To] == sv {
			continue
		}
		out = append(out, e)
	}
	if l.role[v].IsEntry() {
		if s := l.subs[sv]; s != nil {
			vec, cu := l.shortcutVec(s, v), int(l.localIdx[v])
			zero, idem := l.sr.Zero(), l.sr.Idempotent()
			for c, w := range vec {
				if w == zero || (c == cu && idem) {
					continue
				}
				if t := s.Local.ids[c]; l.role[t] != RoleInternal {
					out = append(out, engine.WEdge{To: t, W: w})
				}
			}
		}
	}
	return out
}

// absorbIn calls visit with the compact source and weight of each of
// compact member c's in-edges in s's absorbing frame, the reverse of its
// absorbing view: c's flat in-edges from members that are not entries. It runs
// in pool tasks beside other subgraphs' rebuilds: their members fail
// compactID's subOf gate before the localIdx slots the rebuilds rewrite are
// read, and flatIn, subOf and roles do not change in that phase.
func (l *Layph) absorbIn(s *Subgraph, c graph.VertexID, visit func(src graph.VertexID, w float64)) {
	for _, e := range l.flatIn[s.Local.ids[c]] {
		if ca, ok := l.compactID(s, e.To); ok && !l.role[e.To].IsEntry() {
			visit(graph.VertexID(ca), e.W)
		}
	}
}

// refreshUpVertex recomputes v's Lup out-list into buf, the calling pool
// task's row buffer, and stores a copy only when it changed, so an
// unchanged row costs no allocation. settle decides which rows to refresh:
// the entries maintainShortcuts reports, in their subgraph's task, and the
// role-recomputed vertices in chunks after the shortcut fan-out.
func (l *Layph) refreshUpVertex(v graph.VertexID, buf *[]engine.WEdge) {
	fresh := l.appendUpOut((*buf)[:0], v)
	*buf = fresh
	if !sameRow(l.upOut[v], fresh) {
		l.upOut[v] = exactRow(fresh)
	}
}
