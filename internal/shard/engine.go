package shard

import (
	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/scratch"
)

// pinUpdate carries an owner's published state to a shard that mirrors
// the vertex.
type pinUpdate struct {
	v graph.VertexID
	x float64
}

// shardAlgo adapts the base algorithm to one shard's view: semiring
// weights are computed against the GLOBAL graph (PageRank's d/N⁺(u) and
// PHP's d·w/W⁺(u) depend on the source's global degree, which the shard
// graph does not see), owned vertices keep their real initial state and
// root message, and mirrors are pinned — their root message is the pin
// value the owner last published, their initial state the semiring zero.
// The router only mutates the global graph between engine runs, so the
// concurrent reads here are safe.
type shardAlgo struct {
	u *unit
}

func (s shardAlgo) Name() string            { return s.u.base.Name() }
func (s shardAlgo) Semiring() algo.Semiring { return s.u.base.Semiring() }
func (s shardAlgo) Tolerance() float64      { return s.u.base.Tolerance() }

func (s shardAlgo) EdgeWeight(_ *graph.Graph, u graph.VertexID, e graph.Edge) float64 {
	return s.u.base.EdgeWeight(s.u.grp.global, u, e)
}

func (s shardAlgo) InitState(v graph.VertexID) float64 {
	if s.u.owned(v) {
		return s.u.base.InitState(v)
	}
	return s.u.zero
}

func (s shardAlgo) InitMessage(v graph.VertexID) float64 {
	if s.u.owned(v) {
		return s.u.base.InitMessage(v)
	}
	if int(v) < len(s.u.pins) {
		return s.u.pins[v]
	}
	return s.u.zero
}

// unit is one shard's engine: an inc.Kernel over the shard graph (which
// holds every in-edge of the vertices the shard owns) whose pinned mirror
// vertices enter as seeds. The invariant between runs is x[m] == pins[m]
// for every mirror m; mirrors have no in-edges here, so only pin updates
// ever move them.
type unit struct {
	id   int32
	grp  *Group
	gs   *graph.Graph
	base algo.Algorithm
	sr   algo.Semiring
	zero float64
	k    *inc.Kernel
	pins []float64

	// Tag-closure scratch (min scheme), reused across batches.
	tagged scratch.Set

	// cumulative counters for Info
	activations int64
	rounds      int
}

func (u *unit) owned(v graph.VertexID) bool {
	o := u.grp.owner
	return int(v) < len(o) && o[v] == u.id
}

// newUnit builds the shard graph's engine and runs the initial batch
// computation to its LOCAL fixpoint (all pins zero); the group's
// construction exchange then iterates pins to the global fixpoint.
func newUnit(id int32, grp *Group, gs *graph.Graph) *unit {
	u := &unit{id: id, grp: grp, gs: gs, base: grp.base, sr: grp.sr, zero: grp.sr.Zero()}
	u.pins = inc.GrowVectors(nil, gs.Cap(), u.zero)
	u.k = inc.NewKernel(gs, shardAlgo{u: u}, engine.Options{})
	u.activations = u.k.InitialStats.Activations
	u.rounds = u.k.InitialStats.Rounds
	return u
}

// apply replays the per-shard slice of a net batch onto the shard graph.
// Vertex operations are broadcast to every shard (aliveness and capacity
// stay aligned with the global graph), edge lists are pre-filtered to
// edges this shard hosts. Capacity grown for ids that were created and
// re-deleted within the batch is padded with dead placeholders.
func (u *unit) apply(sub *delta.Applied, targetCap int) {
	for u.gs.Cap() < targetCap {
		id := u.gs.AddVertex()
		u.gs.DeleteVertex(id)
	}
	for _, v := range sub.AddedVertices {
		if !u.gs.Alive(v) {
			u.gs.ReviveVertex(v)
		}
	}
	for _, e := range sub.RemovedEdges {
		u.gs.DeleteEdge(e.From, e.To)
	}
	for _, v := range sub.RemovedVertices {
		u.gs.DeleteVertex(v)
	}
	for _, e := range sub.AddedEdges {
		u.gs.AddEdge(e.From, e.To, e.W)
	}
}

// update runs one exchange round on this shard: apply the local sub-batch
// (round 0 only; nil on pin-only rounds), absorb incoming pin updates, and
// iterate to the shard-local fixpoint. It returns the vertices whose state
// may have changed — the router filters them down to owned boundary
// vertices and fans their new values out as the next round's pins.
//
// Pin semantics per scheme:
//
//   - sum: a pin change old→new is the exact inverse-delta message
//     (new − old) offered at the mirror; the kernel accumulates it into
//     the mirror's state and propagates the delta over its out-edges.
//     global is the whole batch in round 0: weights are degree-coupled, so
//     a source's out-list change in ANY shard reweights its edges here.
//   - min: an improving pin is offered to the mirror; a worsening pin
//     invalidates the mirror like a deleted dependency — its dependency
//     subtree resets and the mirror re-seeds from its root message, which
//     IS the new pin (shardAlgo.InitMessage). extraResets lists mirrors
//     invalidated by the router's cross-shard tag closure; their pins are
//     zeroed so no stale cyclic support survives (the owner republishes
//     after its own recompute).
func (u *unit) update(sub, global *delta.Applied, pins []pinUpdate, extraResets []graph.VertexID) (inc.Stats, []graph.VertexID) {
	u.pins = inc.GrowVectors(u.pins, u.gs.Cap(), u.zero)
	if u.sr.Idempotent() {
		for _, m := range extraResets {
			u.pins[m] = u.zero
			u.k.Invalidate(m)
		}
		for _, p := range pins {
			old := u.pins[p.v]
			if p.x == old {
				continue
			}
			u.pins[p.v] = p.x
			if u.sr.Plus(old, p.x) == p.x {
				u.k.Offer(p.v, p.x)
			} else {
				u.k.Invalidate(p.v)
			}
		}
	} else {
		if global != nil {
			for _, e := range global.AddedEdges {
				u.k.Touch(e.From)
			}
			for _, e := range global.RemovedEdges {
				u.k.Touch(e.From)
			}
		}
		for _, p := range pins {
			if old := u.pins[p.v]; p.x != old {
				u.pins[p.v] = p.x
				u.k.Offer(p.v, p.x-old)
			}
		}
	}
	st := u.k.Update(sub)
	if sub != nil {
		for _, v := range sub.RemovedVertices {
			u.pins[v] = u.zero
		}
	}
	u.activations += st.Activations
	u.rounds += st.Rounds
	return st, u.k.Changed()
}

// localTagSeeds returns the vertices this shard's sub-batch invalidates
// directly: targets whose dependency parent is the source of a removed
// edge, plus removed vertices. The router grows these seeds to the global
// cross-shard reset closure before round 0 (min scheme only).
func (u *unit) localTagSeeds(sub *delta.Applied) []graph.VertexID {
	var seeds []graph.VertexID
	parent := u.k.Parents()
	for _, e := range sub.RemovedEdges {
		if int(e.To) < len(parent) && parent[e.To] == e.From {
			seeds = append(seeds, e.To)
		}
	}
	seeds = append(seeds, sub.RemovedVertices...)
	return seeds
}
