package main

import (
	"math/rand"
	"sort"

	"layph/internal/delta"
	"layph/internal/graph"
)

// localSpread is how many planted communities one local batch (or one
// 256-update stretch of a local stream) may enter. 8 of the ~1500
// communities of the UK preset keeps the touched-subgraph ratio near 0.01.
const localSpread = 8

// Local updates are drawn only from planted communities of
// minLocalCommunity..maxLocalCommunity vertices (about four in five of the
// UK preset's). The lower limit excludes the truncated last community of the
// generator (every other one has 26+ vertices), in which a batch could run
// out of absent pairs to add. The upper limit keeps a community under the
// layering's default size cap K = 64, so that it becomes one dense subgraph:
// a larger one is split, an "internal" edge then crosses subgraphs and makes
// new boundary vertices, which is the spread workload's business and not the
// confined case. It also trips a defect this benchmark found in
// internal/core (README.md, "Found while building"): after such an add
// Layph's SSSP states can end up above the restart's.
const (
	minLocalCommunity = 16
	maxLocalCommunity = 48
)

// feed produces the update sequence of one run. It owns a shadow copy of
// the graph under test and applies everything it emits to that copy, so a
// delete always names an edge that is live when the update is reached and an
// add always names a pair that is absent. The sequence is a pure function
// of (graph, planted assignment, seed): the engine under test never
// influences it, which is what lets two engines be fed the identical
// updates.
type feed struct {
	rng    *rand.Rand
	shadow *graph.Graph
	// members lists the vertices of each planted community local updates
	// may be drawn from.
	members [][]graph.VertexID
	comm    []int
	spread  *delta.Generator
}

func newFeed(shadow *graph.Graph, comm []int, seed int64) *feed {
	byComm := map[int][]graph.VertexID{}
	order := []int{}
	for v, c := range comm {
		if _, ok := byComm[c]; !ok {
			order = append(order, c)
		}
		byComm[c] = append(byComm[c], graph.VertexID(v))
	}
	f := &feed{
		rng:    rand.New(rand.NewSource(seed)),
		shadow: shadow,
		comm:   comm,
		spread: delta.NewGenerator(seed),
	}
	for _, c := range order {
		if n := len(byComm[c]); n >= minLocalCommunity && n <= maxLocalCommunity {
			f.members = append(f.members, byComm[c])
		}
	}
	return f
}

// local returns n updates, half adds and half deletes, confined to
// localSpread randomly drawn planted communities with both endpoints of
// every edge inside one community. No vertex pair is named twice, so the
// whole batch changes the graph (delta.net_applied = 1).
func (f *feed) local(n int) delta.Batch {
	chosen := make([][]graph.VertexID, localSpread)
	for i := range chosen {
		chosen[i] = f.members[f.rng.Intn(len(f.members))]
	}
	used := make(map[uint64]struct{}, n)
	b := make(delta.Batch, 0, n)
	for len(b) < n {
		vs := chosen[f.rng.Intn(len(chosen))]
		u := vs[f.rng.Intn(len(vs))]
		var upd delta.Update
		if len(b)%2 == 0 {
			v := vs[f.rng.Intn(len(vs))]
			if _, exists := f.shadow.HasEdge(u, v); u == v || exists {
				continue
			}
			upd = delta.Update{Kind: delta.AddEdge, U: u, V: v, W: 1 + 9*f.rng.Float64()}
		} else {
			outs := f.shadow.Out(u)
			if len(outs) == 0 {
				continue
			}
			v := outs[f.rng.Intn(len(outs))].To
			if f.comm[v] != f.comm[u] {
				continue
			}
			upd = delta.Update{Kind: delta.DelEdge, U: u, V: v}
		}
		key := uint64(upd.U)<<32 | uint64(upd.V)
		if _, dup := used[key]; dup {
			continue
		}
		used[key] = struct{}{}
		if upd.Kind == delta.AddEdge {
			f.shadow.AddEdge(upd.U, upd.V, upd.W)
		} else {
			f.shadow.DeleteEdge(upd.U, upd.V)
		}
		b = append(b, upd)
	}
	return b
}

// spreadPair returns the paper's default batch — n uniformly random edge
// updates from delta.Generator.EdgeBatch — followed by the batch that undoes
// it. Alternating the two keeps the graph, and with it the layering, where
// it started: without the undo the skeleton fraction climbs from 0.63 to
// above 0.9 within a dozen batches, and a run measured for a fixed time
// would report a median that depends on how many batches it got through.
// The undo batch has the same endpoints, so it is as spread as the first.
func (f *feed) spreadPair(n int) (forward, back delta.Batch) {
	forward = f.spread.EdgeBatch(f.shadow, n, true)
	applied := delta.Apply(f.shadow, forward)
	back = make(delta.Batch, 0, len(applied.AddedEdges)+len(applied.RemovedEdges))
	for _, e := range applied.AddedEdges {
		back = append(back, delta.Update{Kind: delta.DelEdge, U: e.From, V: e.To})
	}
	for _, e := range applied.RemovedEdges {
		back = append(back, delta.Update{Kind: delta.AddEdge, U: e.From, V: e.To, W: e.W})
	}
	// Apply reports net changes in map order; sort so one seed gives one
	// sequence.
	sort.Slice(back, func(i, j int) bool {
		a, b := back[i], back[j]
		if a.Kind != b.Kind {
			return a.Kind > b.Kind // deletes first: a reweight is a delete then an add
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	delta.Undo(f.shadow, applied)
	return forward, back
}
