package core

import (
	"math"
	"time"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/metrics"
	"layph/internal/pool"
	"layph/internal/scratch"
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
func (l *Layph) Update(applied *delta.Applied) inc.Stats {
	start := time.Now()
	poolBefore := l.pool.Stats()
	ph := metrics.NewPhases()
	var st inc.Stats

	var d *layeredDiff
	ph.Time("layered-update", func() { d = l.layeredUpdate(applied) })
	st.Activations += d.shortcutActivations
	st.SubgraphsParallel += d.parallelSubs
	l.LastActs = map[string]int64{"layered-update": d.shortcutActivations}
	before := st.Activations

	if l.sr.Idempotent() {
		l.updateMin(applied, d, ph, &st)
	} else {
		l.updateSum(applied, d, ph, &st)
	}
	l.LastActs["online"] = st.Activations - before
	l.LastPhases = ph

	// Layering-quality gauges (the stream drift controller's inputs).
	// SkeletonFraction is an O(flatN) scan, matching the per-update cost
	// profile Update already has (state snapshots are O(flatN) too).
	st.MembershipMoves = d.membershipMoves
	live, up := 0, 0
	for v := 0; v < l.flatN(); v++ {
		vid := graph.VertexID(v)
		if l.flatAlive(vid) {
			live++
			if l.onUp(vid) {
				up++
			}
		}
	}
	if live > 0 {
		st.SkeletonFraction = float64(up) / float64(live)
	}

	st.Duration = time.Since(start)
	st.PoolUtilization = pool.Utilization(poolBefore, l.pool.Stats(), st.Duration, l.pool.Size())
	if l.opt.SelfCheck {
		// All pool tasks are joined by now (each phase ends with a merge
		// barrier), so the full-structure invariant scan is race-free.
		l.LastCheck = l.CheckInvariants()
	}
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
	// re-applying).
	pending := floatBuf(&sc.pending, n)
	fromLocal := floatBuf(&sc.fromLocal, n)
	// Entry caches (Equation 9) are deltas against the pre-update states:
	// entries absorb both local-upload arrivals and skeleton arrivals, and
	// the assignment phase replays their total delta through the
	// entry→internal shortcuts.
	xPre := copyBuf(&sc.xPre, l.x)

	ph.Time("upload", func() {
		// Revision-message deduction: cancel old contributions over the old
		// flat lists, compensate over the new ones.
		for i, u := range d.oldSrc {
			old := d.oldRows[i]
			xu := l.x[u]
			if xu != 0 {
				for _, e := range old {
					if m := xu * e.W; m != 0 {
						pending[e.To] -= m
						st.Activations++
					}
				}
				for _, e := range l.flatOut[u] {
					if m := xu * e.W; m != 0 {
						pending[e.To] += m
						st.Activations++
					}
				}
			}
			if !l.flatAlive(u) {
				l.x[u] = 0 // removed vertices and orphaned proxies
			}
		}
		for _, v := range applied.AddedVertices {
			pending[v] += l.a.InitMessage(v)
		}

		// Local absorption: one fixpoint per affected subgraph consumes the
		// revision messages addressed to its members and turns them into
		// boundary deltas for the skeleton. Subgraphs own disjoint member
		// sets and each task reads/writes pending, fromLocal and l.x only
		// at its own members, so the fused chunks run as independent pool
		// tasks; results are identical to sequential execution.
		chunks := l.subgraphChunks(d.affectedSubs)
		st.SubgraphsParallel += int64(len(chunks))
		acts := make([]int64, len(chunks))
		grp := l.pool.Group()
		for i, ch := range chunks {
			i, ch := i, ch
			grp.Go(func() {
				var a int64
				for _, s := range ch {
					a += l.uploadSumSubgraph(s, pending, fromLocal)
				}
				acts[i] = a
			})
		}
		grp.Wait()
		for _, a := range acts {
			st.Activations += a
		}
	})

	ph.Time("lup-iteration", func() {
		frame := &engine.Frame{Out: l.upOut}
		m0 := floatBuf(&sc.m0, n)
		x0 := copyBuf(&sc.xSnap, l.x)
		any := false
		for v := 0; v < n; v++ {
			seed := pending[v] + fromLocal[v]
			if seed == 0 {
				continue
			}
			m0[v] = seed
			// Only the already-applied part is backed out of the state; the
			// engine re-applies the whole seed, so fresh messages land once
			// and local deltas land exactly once overall.
			x0[v] -= fromLocal[v]
			any = true
		}
		if !any {
			return
		}
		res := engine.Run(frame, l.sr, x0, m0, engine.Options{
			Workers:   l.opt.Workers,
			Tolerance: l.tol,
		})
		l.x = res.X
		st.Activations += res.Activations
		st.Rounds = res.Rounds
	})

	ph.Time("assignment", func() {
		// One task per fused chunk: a task reads entry states (boundary
		// vertices, not written here) and writes only its own subgraphs'
		// internal vertices via the entry→internal shortcuts — disjoint
		// across subgraphs, hence across chunks.
		chunks := l.subgraphChunks(subgraphList(l.subs))
		st.SubgraphsParallel += int64(len(chunks))
		acts := make([]int64, len(chunks))
		grp := l.pool.Group()
		for i, ch := range chunks {
			i, ch := i, ch
			grp.Go(func() {
				var a int64
				for _, s := range ch {
					for _, u := range s.Entries {
						mu := l.x[u] - xPre[u]
						if math.Abs(mu) <= l.tol {
							continue
						}
						for _, sc := range s.scToI[l.localIdx[u]] {
							l.x[sc.To] += mu * sc.W
							a++
						}
					}
				}
				acts[i] = a
			})
		}
		grp.Wait()
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
	k := lf.size()
	if cap(lf.x0Buf) < k {
		lf.x0Buf = make([]float64, k)
		lf.m0Buf = make([]float64, k)
	}
	x0, m0 := lf.x0Buf[:k], lf.m0Buf[:k]
	seeded := false
	for i, v := range lf.ids {
		x0[i] = l.x[v]
		m0[i] = 0
		if p := pending[v]; p != 0 {
			// Fresh revision messages: the run applies them for the first
			// time (no state back-out).
			m0[i] = p
			pending[v] = 0
			seeded = true
		}
	}
	if !seeded {
		return 0
	}
	res := engine.Run(&engine.Frame{Out: lf.absorbOut}, l.sr, x0, m0, engine.Options{
		Workers:   1,
		Tolerance: l.tol,
	})
	for i, v := range lf.ids {
		dl := res.X[i] - l.x[v]
		l.x[v] = res.X[i]
		if dl != 0 && l.onUp(v) {
			// Boundary members forward their full delta (already applied to
			// their own state) to the skeleton.
			fromLocal[v] += dl
		}
	}
	return res.Activations
}

// updateMin is the idempotent (memoization-path) online path: dependency-
// tree resets, local recomputation in affected subgraphs, skeleton
// iteration with offer re-seeding, shortcut assignment, parent repair.
func (l *Layph) updateMin(applied *delta.Applied, d *layeredDiff, ph *metrics.Phases, st *inc.Stats) {
	n := l.flatN()
	zero := l.sr.Zero()
	sc := &l.scratch
	tagged := boolBuf(&sc.tagged, n)
	var resets []graph.VertexID
	sc.repair.Reset(n)

	var localChanged []graph.VertexID
	var lupChanged []graph.VertexID
	var triggered []*Subgraph // assignment-phase subgraphs (hoisted for the quality gauges)
	var scApps, scHits int64  // shortcut replays / improving replays
	// Subgraphs holding resets, and the active subgraphs (filled during
	// upload; lup-iteration consults the set to route the offer candidates
	// the local fixpoints did not consume), both keyed by subgraph ID; and
	// the dense offer store replacing the per-update offer maps: offerSet
	// marks targets, offerVal carries the folded candidate.
	sc.resetSubs.Reset(0)
	sc.activeSubs.Reset(0)
	var active []*Subgraph
	sc.offerSet.Reset(n)
	offerVal := filledBuf(&sc.offerVal, n, zero)

	actsMark := func(name string, before int64) int64 {
		l.LastActs[name] = st.Activations - before
		return st.Activations
	}
	mark := st.Activations
	ph.Time("upload", func() {
		// ⊥ cancellation: tag the dependency subtrees hanging off removed
		// flat dependency edges, removed vertices and rebuilt proxies.
		var queue []graph.VertexID
		tag := func(v graph.VertexID) {
			if int(v) < n && !tagged[v] {
				tagged[v] = true
				queue = append(queue, v)
			}
		}
		for _, e := range d.removed {
			if l.parent[e.to] == e.from {
				tag(e.to)
			}
		}
		for _, v := range applied.RemovedVertices {
			tag(v)
		}
		for _, u := range d.oldSrc {
			if !l.flatAlive(u) {
				tag(u)
			}
		}
		for _, s := range d.rebuiltSubs {
			for _, p := range s.proxies {
				tag(p)
			}
		}
		if len(queue) > 0 {
			// CSR over the dependency forest: two counting passes instead
			// of a per-parent map of child slices.
			sc.forest.Build(l.parent)
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				resets = append(resets, v)
				for _, c := range sc.forest.Children(v) {
					tag(c)
				}
			}
		}
		for _, v := range resets {
			l.x[v] = zero
			l.parent[v] = engine.NoParent
			sc.repair.Add(v)
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

		// Direct compensation candidates from added flat edges, folded into
		// the dense offer store. An offer targeting a member of an active
		// subgraph is consumed by that subgraph's local task (concurrent
		// tasks only read the store, at their own members); the rest target
		// skeleton vertices and are picked up by the skeleton phase.
		for _, e := range d.added {
			if !l.flatAlive(e.to) || l.x[e.from] == zero {
				continue
			}
			offer := l.sr.Times(l.x[e.from], e.w)
			st.Activations++
			if offer == zero {
				continue
			}
			if sc.offerSet.Add(e.to) || l.sr.Plus(offerVal[e.to], offer) != offerVal[e.to] {
				offerVal[e.to] = offer
			}
		}

		// Snapshot of the post-reset states: concurrent subgraph tasks
		// read offer sources from it, so cross-subgraph boundary reads
		// stay stable (and scheduling-independent) while other tasks
		// rewrite their own members. Stale cross-subgraph values are safe
		// under the monotone min semiring: a boundary member whose value
		// improves during upload lands in localChanged and is
		// re-propagated by the skeleton iteration and assignment phases.
		xSnap := copyBuf(&sc.xSnap, l.x)
		chunks := l.subgraphChunks(active)
		st.SubgraphsParallel += int64(len(chunks))
		type upRes struct {
			changed []graph.VertexID
			acts    int64
		}
		results := make([]upRes, len(chunks))
		grp := l.pool.Group()
		for i, cs := range chunks {
			i, cs := i, cs
			grp.Go(func() {
				var r upRes
				for _, s := range cs {
					ch, a := l.uploadMinSubgraph(s, tagged, xSnap, offerVal, &sc.offerSet)
					r.changed = append(r.changed, ch...)
					r.acts += a
				}
				results[i] = r
			})
		}
		grp.Wait()
		for _, r := range results {
			st.Activations += r.acts
			localChanged = append(localChanged, r.changed...)
			for _, v := range r.changed {
				sc.repair.Add(v)
			}
		}
	})
	mark = actsMark("upload", mark)

	ph.Time("lup-iteration", func() {
		m0 := filledBuf(&sc.m0, n, zero)
		sc.inActive.Reset(n)
		activate := func(v graph.VertexID) {
			sc.inActive.Add(v)
		}
		// Re-seed tagged skeleton vertices from intact skeleton in-edges and
		// root messages.
		for _, v := range resets {
			if !l.flatAlive(v) || !l.onUp(v) {
				continue
			}
			if int(v) < l.origCap {
				if m := l.a.InitMessage(v); m != zero {
					m0[v] = l.sr.Plus(m0[v], m)
				}
			}
			for _, e := range l.upIn[v] {
				src := e.To
				if l.x[src] == zero {
					continue
				}
				offer := l.sr.Times(l.x[src], e.W)
				st.Activations++
				if offer != zero {
					m0[v] = l.sr.Plus(m0[v], offer)
				}
			}
			if m0[v] != zero {
				activate(v)
			}
		}
		// Boundary members whose value changed during local absorption
		// propagate over the skeleton.
		for _, v := range localChanged {
			if l.onUp(v) && l.flatAlive(v) {
				activate(v)
			}
		}
		// Remaining direct candidates on skeleton targets: offers whose
		// target sits in an active subgraph were already consumed by that
		// subgraph's local task.
		for _, v := range sc.offerSet.List {
			if c := l.subOf[v]; c != NoSubgraph && sc.activeSubs.Has(graph.VertexID(c)) {
				continue
			}
			if !l.flatAlive(v) || !l.onUp(v) {
				continue
			}
			offer := offerVal[v]
			if l.sr.Plus(l.x[v], offer) != l.x[v] {
				m0[v] = l.sr.Plus(m0[v], offer)
				activate(v)
			}
		}
		if len(sc.inActive.List) == 0 {
			return
		}
		res := engine.Run(&engine.Frame{Out: l.upOut}, l.sr, l.x, m0, engine.Options{
			Workers:       l.opt.Workers,
			Tolerance:     l.tol,
			InitialActive: sc.inActive.List,
			TrackChanged:  true,
		})
		l.x = res.X
		st.Activations += res.Activations
		st.Rounds = res.Rounds
		for _, v := range res.Changed {
			sc.repair.Add(v)
		}
		lupChanged = res.Changed
	})
	mark = actsMark("lup-iteration", mark)

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
		// Replay entry→internal shortcuts of the triggered subgraphs, one
		// pool task each: a task reads its own entries' states (boundary
		// vertices, never written here) and writes only its own internal
		// vertices — disjoint across subgraphs. The min-replay outcome is
		// order-independent, so the parallel result equals the sequential
		// one.
		for _, s := range subgraphList(l.subs) {
			trigger := sc.resetSubs.Has(graph.VertexID(s.ID))
			if !trigger {
				for _, u := range s.Entries {
					if sc.changedUp.Has(u) {
						trigger = true
						break
					}
				}
			}
			if trigger {
				triggered = append(triggered, s)
			}
		}
		chunks := l.subgraphChunks(triggered)
		st.SubgraphsParallel += int64(len(chunks))
		type asgRes struct {
			repaired []graph.VertexID
			acts     int64
		}
		results := make([]asgRes, len(chunks))
		grp := l.pool.Group()
		for i, cs := range chunks {
			i, cs := i, cs
			grp.Go(func() {
				var r asgRes
				for _, s := range cs {
					for _, u := range s.Entries {
						if l.x[u] == zero {
							continue
						}
						for _, e := range s.scToI[l.localIdx[u]] {
							cand := l.sr.Times(l.x[u], e.W)
							r.acts++
							if l.sr.Plus(l.x[e.To], cand) != l.x[e.To] {
								l.x[e.To] = cand
								r.repaired = append(r.repaired, e.To)
							}
						}
					}
				}
				results[i] = r
			})
		}
		grp.Wait()
		for _, r := range results {
			st.Activations += r.acts
			scApps += r.acts
			scHits += int64(len(r.repaired))
			for _, v := range r.repaired {
				sc.repair.Add(v)
			}
		}
	})

	actsMark("assignment", mark)

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

	// Dependency-parent repair for every vertex whose state may have moved.
	// States are final by now and each repair writes only parent[v], so the
	// scan fans out over the pool in chunks (per-vertex tasks would drown
	// in scheduling overhead).
	repList := sc.repair.List
	l.pool.ForEachChunk(len(repList), 512, func(lo, hi int) {
		for _, v := range repList[lo:hi] {
			l.repairParent(v)
		}
	})
}

// uploadMinSubgraph recomputes one subgraph locally: offers for tagged
// members from valid flat in-neighbors (plus root messages and the
// subgraph's share of added-edge candidates), then a local fixpoint.
// Returns the members whose value changed and the F applications spent.
//
// Safe to run concurrently with other subgraphs' uploads: offer sources
// are read from xRead, the post-reset snapshot (identical to the live
// states for this subgraph's own members, which no other task writes),
// the shared offer store is only read (at this subgraph's own members),
// and l.x is written only at this subgraph's members.
func (l *Layph) uploadMinSubgraph(s *Subgraph, tagged []bool, xRead, offerVal []float64, offerSet *scratch.Set) (changed []graph.VertexID, acts int64) {
	zero := l.sr.Zero()
	lf := s.Local
	k := lf.size()
	if cap(lf.x0Buf) < k {
		lf.x0Buf = make([]float64, k)
		lf.m0Buf = make([]float64, k)
	}
	x0, m0 := lf.x0Buf[:k], lf.m0Buf[:k]
	var act []graph.VertexID
	for i, v := range lf.ids {
		x0[i] = xRead[v]
		m0[i] = zero
		if tagged[v] && l.flatAlive(v) {
			if int(v) < l.origCap {
				if m := l.a.InitMessage(v); m != zero {
					m0[i] = l.sr.Plus(m0[i], m)
				}
			}
			for _, e := range l.flatIn[v] {
				src := e.To
				if tagged[src] || xRead[src] == zero {
					continue
				}
				offer := l.sr.Times(xRead[src], e.W)
				acts++
				if offer != zero {
					m0[i] = l.sr.Plus(m0[i], offer)
				}
			}
		}
		if offerSet.Has(v) {
			m0[i] = l.sr.Plus(m0[i], offerVal[v])
		}
		if m0[i] != zero && l.sr.Plus(x0[i], m0[i]) != x0[i] {
			act = append(act, graph.VertexID(i))
		}
	}
	if len(act) == 0 {
		return nil, acts
	}
	res := engine.Run(&engine.Frame{Out: lf.absorbOut}, l.sr, x0, m0, engine.Options{
		Workers:       1,
		Tolerance:     l.tol,
		InitialActive: act,
		TrackChanged:  true,
	})
	acts += res.Activations
	for _, ci := range res.Changed {
		v := lf.ids[ci]
		l.x[v] = res.X[ci]
		changed = append(changed, v)
	}
	return changed, acts
}

// repairParent re-derives v's dependency parent by scanning its flat
// in-edges for a witness. Witness matching uses a relative epsilon: values
// set through shortcut assignment differ from the edge-by-edge sum by float
// rounding, and an orphaned parent would silently exempt the vertex from
// future ⊥ cancellations (a stale-value correctness hole).
func (l *Layph) repairParent(v graph.VertexID) {
	zero := l.sr.Zero()
	if !l.flatAlive(v) || l.x[v] == zero {
		l.parent[v] = engine.NoParent
		return
	}
	l.parent[v] = engine.NoParent
	eps := 1e-9 * (1 + math.Abs(l.x[v]))
	for _, e := range l.flatIn[v] {
		src := e.To
		if l.x[src] == zero {
			continue
		}
		if math.Abs(l.sr.Times(l.x[src], e.W)-l.x[v]) <= eps {
			l.parent[v] = src
			return
		}
	}
}
