package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/metrics"
	"layph/internal/pool"
)

// Update incrementally adjusts the memoized result to the applied batch
// (the graph must already reflect it). The paper's online phases are timed
// individually into LastPhases (Figure 7):
//
//	layered-update — Section IV-B (structure + shortcut maintenance)
//	upload         — Section V-A  (local fixpoints in affected subgraphs)
//	lup-iteration  — Section V-B  (global iteration on the skeleton)
//	assignment     — Section V-C  (entry→internal shortcut application)
//
// Independent per-subgraph work inside the phases (shortcut maintenance,
// upload fixpoints, assignment replays) fans out over the shared worker
// pool; every phase joins all of its tasks before the next one starts, so
// Update as a whole still presents the sequential phase order. The number
// of subgraph tasks dispatched and the pool's utilization over the update
// are reported in the returned Stats.
func (l *Layph) Update(applied *delta.Applied) inc.Stats { return l.update(applied, nil) }

// update is Update with, for a landing re-detection (Redetect), the fresh
// partition the layered-update phase migrates to.
func (l *Layph) update(applied *delta.Applied, fresh *community.Partition) inc.Stats {
	start := time.Now()
	poolBefore := l.pool.Stats()
	ph := metrics.NewPhases()
	var st inc.Stats

	var d *layeredDiff
	ph.Time("layered-update", func() { d = l.layeredUpdate(applied, fresh) })
	st.Activations += d.shortcutActivations
	st.SubgraphsParallel += d.parallelSubs

	if l.sr.Idempotent() {
		l.updateMin(applied, d, ph, &st)
	} else {
		l.updateSum(applied, d, ph, &st)
	}
	l.LastPhases = ph

	// Layering-quality gauges (the stream drift controller's inputs).
	// SkeletonFraction reads the live and skeleton counts setRole keeps.
	st.MembershipMoves = d.membershipMoves
	if l.live > 0 {
		st.SkeletonFraction = float64(l.skel) / float64(l.live)
	}

	st.Duration = time.Since(start)
	st.PoolUtilization = pool.Utilization(poolBefore, l.pool.Stats(), st.Duration, l.pool.Size())
	return st
}

// updateSum is the non-idempotent (memoization-free) online path: exact
// inverse-delta revision messages, local absorption, skeleton iteration,
// delta assignment.
func (l *Layph) updateSum(applied *delta.Applied, d *layeredDiff, ph *metrics.Phases, st *inc.Stats) {
	n := l.flatN()
	sc := &l.scratch
	// pending holds fresh revision messages not yet applied to any state;
	// fromLocal holds boundary deltas the local upload runs already applied
	// to their vertices (the skeleton run must propagate them without
	// re-applying). Both are zero between updates: seeds lists every slot
	// this update writes, and the Lup seeding clears them through it.
	pending := rawBuf(&sc.pending, n)
	fromLocal := rawBuf(&sc.fromLocal, n)
	seeds := &sc.sumSeeds
	seeds.Reset(0)
	// Entry caches (Equation 9) are deltas against the pre-update states:
	// entries absorb both local-upload arrivals and skeleton arrivals, and
	// the assignment phase replays their total delta through the
	// entry→internal shortcuts.
	xPre := copyBuf(&sc.xPre, l.x)

	ph.Time("upload", func() {
		// Revision-message deduction: cancel old contributions over the old
		// flat lists, compensate over the new ones.
		emit := func(v graph.VertexID, m float64) {
			pending[v] += m
			seeds.Add(v)
		}
		for i, u := range d.oldSrc {
			st.Activations += inc.Revise(l.x[u], d.oldRows[i], l.flatOut[u], emit)
			if !l.flatAlive(u) {
				l.x[u] = 0 // removed vertices and orphaned proxies
			}
		}
		for _, v := range applied.AddedVertices {
			pending[v] += l.a.InitMessage(v)
			seeds.Add(v)
		}

		// Local absorption: one fixpoint per affected subgraph consumes the
		// revision messages addressed to its members and turns them into
		// boundary deltas for the skeleton. Subgraphs own disjoint member
		// sets and each task reads/writes pending, fromLocal and l.x only
		// at its own members, so the fused chunks run as independent pool
		// tasks; results are identical to sequential execution.
		acts := eachChunk(l, d.affectedSubs, func(ch []*Subgraph) (a int64) {
			for _, s := range ch {
				a += l.uploadSumSubgraph(s, pending, fromLocal)
			}
			return a
		})
		st.SubgraphsParallel += int64(len(acts))
		for _, a := range acts {
			st.Activations += a
		}
		// The uploads wrote fromLocal only at their subgraphs' members.
		for _, s := range d.affectedSubs {
			for _, v := range s.Local.ids {
				if fromLocal[v] != 0 {
					seeds.Add(v)
				}
			}
		}
	})

	ph.Time("lup-iteration", func() {
		any := false
		for _, v := range seeds.List {
			// Only the already-applied part is backed out of the state; the
			// run re-applies the whole seed, so fresh messages land once
			// and local deltas land exactly once overall.
			if seed := pending[v] + fromLocal[v]; seed != 0 {
				l.x[v] -= fromLocal[v]
				l.lup.Seed(v, seed, engine.NoParent)
				any = true
			}
			pending[v], fromLocal[v] = 0, 0
		}
		if !any {
			return
		}
		res := l.lup.Run(&engine.Frame{Out: l.upOut}, l.x, nil, engine.Options{
			Workers:   l.opt.Workers,
			Tolerance: l.tol,
		})
		st.Activations += res.Activations
		st.Rounds = res.Rounds
	})

	ph.Time("assignment", func() {
		// One task per fused chunk: a task reads entry states (boundary
		// vertices, not written here) and writes only its own subgraphs'
		// internal vertices via the entry→internal shortcuts — disjoint
		// across subgraphs, hence across chunks.
		acts := eachChunk(l, subgraphList(l.subs), func(ch []*Subgraph) (a int64) {
			for _, s := range ch {
				for _, u := range s.Entries {
					mu := l.x[u] - xPre[u]
					if math.Abs(mu) <= l.tol {
						continue
					}
					vec := s.scVec[l.localIdx[u]]
					for _, t := range s.Internal {
						if w := vec[l.localIdx[t]]; w != 0 {
							l.x[t] += mu * w
							a++
						}
					}
				}
			}
			return a
		})
		st.SubgraphsParallel += int64(len(acts))
		for _, a := range acts {
			st.Activations += a
		}
	})

	// Dead vertices hold no state: clear correction residue parked on them.
	for _, u := range d.oldSrc {
		if !l.flatAlive(u) {
			l.x[u] = 0
		}
	}
	for _, v := range applied.RemovedVertices {
		l.x[v] = 0
	}

	// Quality gauges: the sum scheme's assignment iterates all subgraphs (and
	// every replay contributes exactly its delta), so the honest touched set
	// is the subgraphs whose interior the upload had to enter, and the
	// shortcut hit rate is the diagnostic constant 1.
	if len(l.subs) > 0 {
		st.TouchedSubgraphRatio = float64(len(d.affectedSubs)) / float64(len(l.subs))
	}
	st.ShortcutHitRate = 1
}

// uploadSumSubgraph runs the local fixpoint of one affected subgraph,
// consuming the pending revision messages addressed to its members. Member
// states absorb their internal-path effects; the messages re-emerge as
// pending deltas on boundary members for the skeleton iteration. Safe to
// run concurrently with other subgraphs' uploads: it touches pending,
// fromLocal and l.x only at this subgraph's (exclusively owned) members.
// Returns the F applications spent.
func (l *Layph) uploadSumSubgraph(s *Subgraph, pending, fromLocal []float64) int64 {
	lf := s.Local
	ts := l.getTask()
	defer l.putTask(ts)
	x := rawBuf(&ts.x, lf.size())
	seeded := false
	for i, v := range lf.ids {
		x[i] = l.x[v]
		if p := pending[v]; p != 0 {
			// Fresh revision messages: the run applies them for the first
			// time (no state back-out).
			ts.run.Seed(graph.VertexID(i), p, engine.NoParent)
			pending[v] = 0
			seeded = true
		}
	}
	if !seeded {
		return 0
	}
	res := ts.run.Run(l.absorbing(s), x, nil, engine.Options{
		Workers:   1,
		Tolerance: l.tol,
	})
	for i, v := range lf.ids {
		dl := x[i] - l.x[v]
		l.x[v] = x[i]
		if dl != 0 && l.onUp(v) {
			// Boundary members forward their full delta (already applied to
			// their own state) to the skeleton.
			fromLocal[v] += dl
		}
	}
	return res.Activations
}

// updateMin is the idempotent (memoization-path) online path, the scheme of
// inc.Kernel's updateMin over the layered graph: dependency-tree resets,
// then one offer store for every compensation — a reset vertex's re-seed
// and an added edge's offer alike — consumed by local recomputation in the
// active subgraphs and, for skeleton targets outside them, by the skeleton
// iteration; then shortcut assignment. Every phase sets a dependency parent
// where it sets a value, as inc.Kernel does: the flat in-neighbour whose
// message the fixpoint took, or the source that seeded it. A value that
// came through a shortcut takes the last hop of the shortcut's deduction
// path (lastHop), from one ranked entry per tie.
//
// No phase walks the flat ID space: the sets are epoch-stamped, the offer
// store is read only at its members, and the runs work in place.
func (l *Layph) updateMin(applied *delta.Applied, d *layeredDiff, ph *metrics.Phases, st *inc.Stats) {
	n := l.flatN()
	zero := l.sr.Zero()
	sc := &l.scratch
	var resets []graph.VertexID

	var localChanged []graph.VertexID
	var lupChanged []graph.VertexID
	var triggered []*Subgraph // assignment-phase subgraphs (hoisted for the quality gauges)
	var scApps, scHits int64  // shortcut replays / improving replays
	// Subgraphs holding resets, and the active subgraphs (filled during
	// upload; lup-iteration consults the set to route the offers the local
	// fixpoints did not consume), both keyed by subgraph ID; and the dense
	// offer store: offerSet marks targets, offerVal carries the folded
	// offer and offerFrom its source (read only at offerSet members, so
	// they need no fill).
	sc.resetSubs.Reset(0)
	sc.activeSubs.Reset(0)
	var active []*Subgraph
	sc.offerSet.Reset(n)
	offerVal := rawBuf(&sc.offerVal, n)
	offerFrom := rawBuf(&sc.offerFrom, n)

	ph.Time("upload", func() {
		// ⊥ cancellation: reset the dependency subtrees hanging off removed
		// flat dependency edges, removed vertices, dead sources and rebuilt
		// proxies. The walk follows the (post-batch) flat rows: a child
		// whose flat edge left its parent's row is one of these roots.
		roots := sc.roots[:0]
		for _, e := range d.removed {
			if l.parent[e.to] == e.from {
				roots = append(roots, e.to)
			}
		}
		roots = append(roots, applied.RemovedVertices...)
		for _, u := range d.oldSrc {
			if !l.flatAlive(u) {
				roots = append(roots, u)
			}
		}
		for _, s := range d.rebuiltSubs {
			roots = append(roots, s.proxies...)
		}
		sc.roots = roots
		sc.trim.Trim(l.x, l.parent, zero, &delta.Applied{}, roots, inc.RowSucc(l.flatOut))
		resets = sc.trim.Tagged.List
		for _, v := range resets {
			if c := l.subOf[v]; c != NoSubgraph {
				sc.resetSubs.Add(graph.VertexID(c))
			}
		}
		st.Resets = len(resets)

		// Active subgraphs: structure-affected plus any holding resets.
		for _, s := range d.affectedSubs {
			sc.activeSubs.Add(graph.VertexID(s.ID))
			active = append(active, s)
		}
		for _, c := range sc.resetSubs.List {
			if s, ok := l.subs[int32(c)]; ok && sc.activeSubs.Add(c) {
				active = append(active, s)
			}
		}
		sortSubgraphs(active)

		// Every compensation is an offer, folded into the dense offer store
		// from pre-upload values: each live reset vertex's root message and
		// an offer from every flat in-neighbour with a value (reset ones
		// hold zero), then the added flat edges. An offer targeting a member
		// of an active subgraph — every reset member, as resetSubs ⊆ active
		// — is consumed by that subgraph's local task (concurrent tasks only
		// read the store, at their own members); the rest target skeleton
		// vertices and are picked up by the skeleton phase. A source that
		// improves during upload lands in localChanged and re-propagates.
		offer := func(v, src graph.VertexID, m float64) {
			if m != zero && (sc.offerSet.Add(v) || l.sr.Plus(offerVal[v], m) != offerVal[v]) {
				offerVal[v], offerFrom[v] = m, src
			}
		}
		for _, v := range resets {
			if !l.flatAlive(v) {
				continue
			}
			if int(v) < l.origCap {
				offer(v, engine.NoParent, l.a.InitMessage(v))
			}
			for _, e := range l.flatIn[v] {
				if l.x[e.To] != zero {
					st.Activations++
					offer(v, e.To, l.sr.Times(l.x[e.To], e.W))
				}
			}
		}
		for _, e := range d.added {
			if l.flatAlive(e.to) && l.x[e.from] != zero {
				st.Activations++
				offer(e.to, e.from, l.sr.Times(l.x[e.from], e.w))
			}
		}

		// The local tasks read the post-reset states and return what they
		// settle; it is applied after the join. Offer sources in other
		// subgraphs thus read stable, scheduling-independent values. Stale
		// cross-subgraph values are safe under the monotone min semiring:
		// a boundary member whose value improves during upload lands in
		// localChanged and is re-propagated by the skeleton iteration and
		// assignment phases.
		type upRes struct {
			settled []settled
			acts    int64
		}
		results := eachChunk(l, active, func(cs []*Subgraph) (r upRes) {
			for _, s := range cs {
				var a int64
				r.settled, a = l.uploadMinSubgraph(s, r.settled)
				r.acts += a
			}
			return r
		})
		st.SubgraphsParallel += int64(len(results))
		for _, r := range results {
			st.Activations += r.acts
			for _, u := range r.settled {
				l.x[u.v], l.parent[u.v] = u.x, u.p
				localChanged = append(localChanged, u.v)
			}
		}
	})

	ph.Time("lup-iteration", func() {
		run := l.lup
		sc.lupRun.Reset(n)
		sc.viaShortcut.Reset(n)
		seeded := false
		activate := func(v graph.VertexID) {
			run.Activate(v)
			seeded = true
		}
		// Boundary members whose value changed during local absorption
		// propagate over the skeleton.
		for _, v := range localChanged {
			if l.onUp(v) && l.flatAlive(v) {
				activate(v)
			}
		}
		// Offers to skeleton vertices outside active subgraphs (those
		// inside were consumed by their subgraph's local task).
		for _, v := range sc.offerSet.List {
			if c := l.subOf[v]; c != NoSubgraph && sc.activeSubs.Has(graph.VertexID(c)) {
				continue
			}
			if !l.flatAlive(v) || !l.onUp(v) {
				continue
			}
			offer := offerVal[v]
			if l.sr.Plus(l.x[v], offer) != l.x[v] {
				run.Seed(v, offer, offerFrom[v])
				activate(v)
			}
		}
		if !seeded {
			return
		}
		res := run.Run(&engine.Frame{Out: l.upOut}, l.x, l.parent, engine.Options{
			Workers:   l.opt.Workers,
			Tolerance: l.tol,
		})
		st.Activations += res.Activations
		st.Rounds = res.Rounds
		lupChanged = res.Changed

		// Number the changed vertices by depth in the run's own parent
		// forest, which orders them the way the run settled them. A value
		// the run set from a seed has the seed's source as its parent,
		// which the run did not change.
		depth := rawBuf(&sc.depth, n)
		for _, v := range res.Changed {
			sc.lupRun.Add(v)
			depth[v] = -1
		}
		var number func(v graph.VertexID) int32
		number = func(v graph.VertexID) int32 {
			if depth[v] < 0 {
				depth[v] = 0
				if p := l.parent[v]; p != engine.NoParent && sc.lupRun.Has(p) {
					depth[v] = number(p) + 1
				}
			}
			return depth[v]
		}
		for _, v := range res.Changed {
			number(v)
			// A parent in v's own subgraph is an entry whose shortcut
			// carried the value: assignment replaces it with the flat
			// parent behind the shortcut (shortcutParent), keeping it as
			// the cause until then.
			if c, p := l.subOf[v], l.parent[v]; c != NoSubgraph && p != engine.NoParent && l.subOf[p] == c {
				sc.viaShortcut.Add(v)
			}
		}
	})

	ph.Time("assignment", func() {
		sc.changedUp.Reset(n)
		for _, v := range lupChanged {
			sc.changedUp.Add(v)
		}
		// Entries are absorbing in local runs, so an entry improved during
		// upload also needs its shortcuts replayed.
		for _, v := range localChanged {
			if l.role[v].IsEntry() {
				sc.changedUp.Add(v)
			}
		}
		// The triggered subgraphs are those holding resets or a changed
		// entry, in ID order.
		sc.trigSubs.Reset(0)
		trigger := func(c int32) {
			if s := l.subs[c]; s != nil && sc.trigSubs.Add(graph.VertexID(c)) {
				triggered = append(triggered, s)
			}
		}
		for _, c := range sc.resetSubs.List {
			trigger(int32(c))
		}
		for _, v := range sc.changedUp.List {
			if l.role[v].IsEntry() {
				trigger(l.subOf[v])
			}
		}
		sortSubgraphs(triggered)
		// Replay entry→internal shortcuts of the triggered subgraphs, one
		// pool task each: a task reads its own entries' states (boundary
		// vertices, never written here) and writes only its own members'
		// states and parents — disjoint across subgraphs. The min-replay
		// values are order-independent, so the parallel result equals the
		// sequential one.
		//
		// Entries that tie for a value (zero-weight cycles, as in CC) would
		// stand for different deduction paths; parents drawn from two of
		// them can close a cycle. Every shortcut-set parent of a subgraph is
		// therefore taken from the first tying entry in one order that
		// follows how the values were settled (rankedEntries): replays run
		// in that order, so the first improving replay to reach the final
		// value wins, and the skeleton values that came through shortcuts
		// are re-attributed the same way.
		type asgRes struct {
			acts, hits int64
		}
		results := eachChunk(l, triggered, func(cs []*Subgraph) (r asgRes) {
			var order []graph.VertexID
			for _, s := range cs {
				order = l.rankedEntries(order, s)
				for _, v := range s.Local.ids {
					if sc.viaShortcut.Has(v) {
						l.parent[v] = l.shortcutParent(s, order, v, l.parent[v])
					}
				}
				for _, u := range order {
					if l.x[u] == zero {
						continue
					}
					cu := l.localIdx[u]
					vec := s.scVec[cu]
					for _, t := range s.Internal {
						ct := l.localIdx[t]
						if vec[ct] == zero {
							continue
						}
						cand := l.sr.Times(l.x[u], vec[ct])
						r.acts++
						if l.sr.Plus(l.x[t], cand) != l.x[t] {
							l.x[t] = cand
							l.parent[t] = s.lastHop(cu, ct)
							r.hits++
						}
					}
				}
			}
			return r
		})
		st.SubgraphsParallel += int64(len(results))
		for _, r := range results {
			st.Activations += r.acts
			scApps += r.acts
			scHits += r.hits
		}
	})

	// Quality gauges: the touched set is every subgraph whose interior this
	// update entered — upload work (structure-affected or reset-holding) plus
	// assignment replays. The hit rate is the fraction of shortcut replays
	// that improved their target; as memoized state drifts from the live
	// community structure it decays toward 0 (1 when nothing was replayed).
	touchedSubs := len(active)
	for _, s := range triggered {
		if !sc.activeSubs.Has(graph.VertexID(s.ID)) {
			touchedSubs++
		}
	}
	if len(l.subs) > 0 {
		st.TouchedSubgraphRatio = float64(touchedSubs) / float64(len(l.subs))
	}
	st.ShortcutHitRate = 1
	if scApps > 0 {
		st.ShortcutHitRate = float64(scHits) / float64(scApps)
	}
}

// lastHop returns the flat parent a value set through entry cu's shortcut
// to compact vertex cv stands for: the last hop of cu's deduction path to
// cv, which is the entry itself when that hop is the entry's own edge.
func (s *Subgraph) lastHop(cu, cv int32) graph.VertexID {
	return s.Local.ids[s.scParent[cu][cv]]
}

// rankedEntries returns s's entries in the order the last skeleton run
// settled them: entries it did not change first, then by depth in the run's
// parent forest, ties in Entries order. An entry whose value came through
// another entry's shortcut always ranks after that entry.
func (l *Layph) rankedEntries(buf []graph.VertexID, s *Subgraph) []graph.VertexID {
	rank := func(u graph.VertexID) int32 {
		if l.scratch.lupRun.Has(u) {
			return l.scratch.depth[u]
		}
		return -1
	}
	buf = append(buf[:0], s.Entries...)
	slices.SortStableFunc(buf, func(a, b graph.VertexID) int { return cmp.Compare(rank(a), rank(b)) })
	return buf
}

// shortcutParent returns the parent of member v, whose skeleton value came
// through a shortcut of its subgraph from entry cause: the last hop behind
// the first entry in order whose shortcut gives v exactly its value (cause's
// when rounding hides every tie).
func (l *Layph) shortcutParent(s *Subgraph, order []graph.VertexID, v, cause graph.VertexID) graph.VertexID {
	cv := l.localIdx[v]
	for _, u := range order {
		cu := l.localIdx[u]
		if u != v && l.sr.Times(l.x[u], s.scVec[cu][cv]) == l.x[v] {
			return s.lastHop(cu, cv)
		}
	}
	return s.lastHop(l.localIdx[cause], cv)
}

// settled is a member value an upload task settled: v takes x with
// dependency parent p.
type settled struct {
	v graph.VertexID
	x float64
	p graph.VertexID
}

// uploadMinSubgraph recomputes one subgraph locally: each member's offer
// in the store — a reset member's re-seed from its whole flat in-row, an
// added edge's compensation — seeds a local fixpoint when it improves the
// member. Appends the members whose value changed, with their new values
// and parents, to out and returns it with the F applications spent.
//
// Safe to run concurrently with other subgraphs' uploads: it only reads
// l.x and the shared offer store (at this subgraph's own members), which
// no task writes, and works on its own compact copy.
func (l *Layph) uploadMinSubgraph(s *Subgraph, out []settled) ([]settled, int64) {
	sc := &l.scratch
	lf := s.Local
	k := lf.size()
	ts := l.getTask()
	defer l.putTask(ts)
	run := ts.run
	x, par := rawBuf(&ts.x, k), rawBuf(&ts.par, k)
	// A seed's flat source is recorded as k+j, past the compact IDs, for
	// ext[j]: the run's parent vector then holds in-run (compact) and
	// seeded (flat) parents alike.
	ts.ext = ts.ext[:0]
	activated := false
	for i, v := range lf.ids {
		x[i] = l.x[v]
		if !sc.offerSet.Has(v) || l.sr.Plus(x[i], sc.offerVal[v]) == x[i] {
			continue
		}
		src := sc.offerFrom[v]
		if src != engine.NoParent {
			ts.ext = append(ts.ext, src)
			src = graph.VertexID(k + len(ts.ext) - 1)
		}
		run.Seed(graph.VertexID(i), sc.offerVal[v], src)
		run.Activate(graph.VertexID(i))
		activated = true
	}
	if !activated {
		return out, 0
	}
	res := run.Run(l.absorbing(s), x, par, engine.Options{
		Workers:   1,
		Tolerance: l.tol,
	})
	for _, ci := range res.Changed {
		p := par[ci]
		switch {
		case p == engine.NoParent:
		case int(p) < k:
			p = lf.ids[p]
		default:
			p = ts.ext[int(p)-k]
		}
		out = append(out, settled{v: lf.ids[ci], x: x[ci], p: p})
	}
	return out, res.Activations
}
