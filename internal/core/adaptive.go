package core

import (
	"sort"

	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/graph"
)

// adaptMembership is the adaptive half of the layered update (Options.
// AdaptiveCommunities): it runs the incremental community adjustment
// (community.AdjustDetailed) against the already-applied batch and migrates
// dense-subgraph membership to follow the partition, so the layering tracks
// community drift instead of freezing the memberships computed at build
// time.
//
// For every vertex the adjustment moved, the per-community member index and
// the subgraph origMembers lists are updated, subOf is repointed (dense
// subgraphs only — communities without one are outlier territory), and the
// vertex plus its in-neighbors are marked for flat-row refresh. Changed
// communities that back a dense subgraph are returned as forced structural
// rebuilds; changed communities without one are re-evaluated for density
// and promoted to a fresh subgraph when they qualify (a split or merge that
// crossed the density threshold).
//
// Community ids stay stable across adjustments — dead ids are reclaimed
// only at a full re-layer (a fresh engine build), which is the id-stability
// contract the shortcut localization relies on.
func (l *Layph) adaptMembership(applied *delta.Applied) (forced []int32, moves int64) {
	res := community.AdjustDetailed(l.g, l.part, l.opt.Community, applied)
	if len(res.Changed) == 0 {
		return nil, 0
	}
	for len(l.commVerts) < l.part.NumComms {
		l.commVerts = append(l.commVerts, nil)
	}
	sc := &l.scratch
	mark := func(v graph.VertexID) {
		if int(v) < l.flatN() {
			sc.touched.Add(v)
			sc.dirty.Add(v)
		}
	}
	for _, m := range res.Moved {
		moves++
		if m.From >= 0 {
			l.commVerts[m.From] = removeVertex(l.commVerts[m.From], m.V)
			if s, ok := l.subs[m.From]; ok {
				s.origMembers = removeVertex(s.origMembers, m.V)
			}
		}
		if m.To >= 0 {
			l.commVerts[m.To] = append(l.commVerts[m.To], m.V)
		}
		if int(m.V) < len(l.subOf) {
			if s, ok := l.subs[m.To]; m.To >= 0 && ok {
				s.origMembers = append(s.origMembers, m.V)
				l.subOf[m.V] = m.To
			} else {
				l.subOf[m.V] = NoSubgraph
			}
		}
		if !l.flatAlive(m.V) {
			continue
		}
		// The mover's flat row must be re-routed against its new subgraph,
		// and so must every in-neighbor's (their edges to the mover may gain
		// or lose proxy indirection).
		mark(m.V)
		for _, ie := range l.g.In(m.V) {
			if int(ie.To) < l.flatN() {
				sc.touched.Add(ie.To)
			}
		}
	}

	// Changed communities in ascending id order (deterministic rebuild and
	// promotion order regardless of map iteration).
	ids := make([]int32, 0, len(res.Changed))
	for c := range res.Changed {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
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
		if dec := l.evaluateCommunity(c, live); !dec.dense {
			continue
		}
		s := &Subgraph{ID: c, origMembers: live}
		for _, v := range live {
			l.subOf[v] = c
			mark(v)
			for _, ie := range l.g.In(v) {
				if int(ie.To) < l.flatN() {
					sc.touched.Add(ie.To)
				}
			}
		}
		l.subs[c] = s
		forced = append(forced, c)
	}
	return forced, moves
}

// removeVertex deletes the first occurrence of v from list, preserving order
// (order feeds compact-ID assignment, which must stay deterministic).
func removeVertex(list []graph.VertexID, v graph.VertexID) []graph.VertexID {
	for i := range list {
		if list[i] == v {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// CommunityStats reports the partition's live community count against its
// allocated id count. Ids are stable between full re-layers, so under churn
// the gap (dead, unreclaimed ids) grows; the stream drift controller uses
// the ratio as one of its full-re-layer triggers, and a fresh build (which
// re-runs detection) compacts the id space again.
func (l *Layph) CommunityStats() (live, ids int) {
	return l.part.LiveComms(), l.part.NumComms
}
