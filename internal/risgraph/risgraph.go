// Package risgraph reimplements the algorithmic strategy of RisGraph (Feng
// et al., SIGMOD 2021): real-time per-update incremental processing for
// monotonic (min-semiring) algorithms with safe/unsafe update
// classification.
//
// Every unit update is processed individually (RisGraph targets
// sub-millisecond per-update analysis rather than batched runs):
//
//   - an edge insertion (u,v) is SAFE if the offered value x(u) ⊗ w does not
//     improve x(v) — handled in O(1) with a single F application;
//   - an edge deletion (u,v) is SAFE if (u,v) is not v's dependency edge —
//     handled in O(1) with no F application;
//   - unsafe updates trigger a localized push-based fix: insertions
//     propagate the improvement from v; deletions reset the invalidated
//     dependency subtree and recompute it from intact offers.
//
// The per-update discipline keeps activations low (the classification prunes
// most work) but pays fixed bookkeeping per update, which is why the paper
// finds it slower than batched Ingress at large batch sizes.
package risgraph

import (
	"fmt"
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Engine is a RisGraph instance bound to one graph and one algorithm.
type Engine struct {
	g      *graph.Graph
	a      algo.Algorithm
	x      []float64
	parent []graph.VertexID
	// children mirrors parent for subtree invalidation; maintained
	// incrementally per update.
	children map[graph.VertexID]map[graph.VertexID]struct{}
	// InitialStats records the cost of the initial batch run.
	InitialStats inc.Stats
	// Safe and Unsafe count the classification outcomes across Updates.
	Safe, Unsafe int64
}

// New builds the engine and runs the batch computation. It panics for
// non-monotonic algorithms (RisGraph's single-dependency requirement).
func New(g *graph.Graph, a algo.Algorithm, opt engine.Options) *Engine {
	if !a.Semiring().Idempotent() {
		panic(fmt.Sprintf("risgraph: %s violates the single-dependency requirement", a.Name()))
	}
	e := &Engine{g: g, a: a}
	start := time.Now()
	opt.TrackParents = true
	res := engine.RunBatch(g, a, opt)
	e.x = res.X
	e.parent = res.Parent
	e.children = make(map[graph.VertexID]map[graph.VertexID]struct{})
	for v, p := range e.parent {
		if p != engine.NoParent {
			e.addChild(p, graph.VertexID(v))
		}
	}
	e.InitialStats = inc.Stats{Activations: res.Activations, Rounds: res.Rounds, Duration: time.Since(start)}
	return e
}

func (e *Engine) addChild(p, c graph.VertexID) {
	s, ok := e.children[p]
	if !ok {
		s = make(map[graph.VertexID]struct{})
		e.children[p] = s
	}
	s[c] = struct{}{}
}

func (e *Engine) setParent(v, p graph.VertexID) {
	if old := e.parent[v]; old != engine.NoParent {
		delete(e.children[old], v)
	}
	e.parent[v] = p
	if p != engine.NoParent {
		e.addChild(p, v)
	}
}

// Name returns "risgraph".
func (e *Engine) Name() string { return "risgraph" }

// States returns the converged states (live view; do not mutate).
func (e *Engine) States() []float64 { return e.x }

// Update processes the batch one unit update at a time with safe/unsafe
// classification. The engine's graph must already reflect the whole batch,
// which is fine: insert offers and deletion classifications depend only on
// memoized values and the dependency tree, and each unsafe fix runs against
// the final graph, so the per-update fixes compose to the batch fixpoint.
func (e *Engine) Update(applied *delta.Applied) inc.Stats {
	start := time.Now()
	zero := e.a.Semiring().Zero()
	n := e.g.Cap()
	if len(e.x) < n {
		e.x = inc.GrowVectors(e.x, n, zero)
		e.parent = inc.GrowParents(e.parent, n)
	}
	var st inc.Stats

	for _, v := range applied.AddedVertices {
		e.x[v] = e.a.InitState(v)
		e.setParent(v, engine.NoParent)
	}
	for _, ed := range applied.RemovedEdges {
		e.processDeletion(ed, &st)
	}
	for _, v := range applied.RemovedVertices {
		e.x[v] = zero
		e.setParent(v, engine.NoParent)
	}
	for _, ed := range applied.AddedEdges {
		e.processInsertion(ed, &st)
	}
	st.Duration = time.Since(start)
	return st
}

func (e *Engine) processInsertion(ed graph.DeletedEdge, st *inc.Stats) {
	sr := e.a.Semiring()
	zero := sr.Zero()
	u, v := ed.From, ed.To
	if !e.g.Alive(u) || !e.g.Alive(v) || e.x[u] == zero {
		e.Safe++
		return
	}
	offer := sr.Times(e.x[u], e.a.EdgeWeight(e.g, u, graph.Edge{To: v, W: ed.W}))
	st.Activations++
	if sr.Plus(e.x[v], offer) == e.x[v] {
		e.Safe++ // no improvement: safe, O(1)
		return
	}
	e.Unsafe++
	e.x[v] = offer
	e.setParent(v, u)
	e.propagateImprovement(v, st)
}

// propagateImprovement pushes a strictly improving value from seed outward
// until no more improvements occur (localized Bellman-Ford).
func (e *Engine) propagateImprovement(seed graph.VertexID, st *inc.Stats) {
	sr := e.a.Semiring()
	work := []graph.VertexID{seed}
	for len(work) > 0 {
		st.Rounds++
		var next []graph.VertexID
		for _, u := range work {
			for _, oe := range e.g.Out(u) {
				offer := sr.Times(e.x[u], e.a.EdgeWeight(e.g, u, graph.Edge{To: oe.To, W: oe.W}))
				st.Activations++
				if sr.Plus(e.x[oe.To], offer) != e.x[oe.To] {
					e.x[oe.To] = offer
					e.setParent(oe.To, u)
					next = append(next, oe.To)
				}
			}
		}
		work = next
	}
}

func (e *Engine) processDeletion(ed graph.DeletedEdge, st *inc.Stats) {
	u, v := ed.From, ed.To
	if int(v) >= len(e.parent) || e.parent[v] != u {
		e.Safe++ // not a dependency edge: safe, O(1)
		return
	}
	e.Unsafe++
	sr := e.a.Semiring()
	zero := sr.Zero()

	// Invalidate v's dependency subtree.
	var resets []graph.VertexID
	queue := []graph.VertexID{v}
	tagged := map[graph.VertexID]struct{}{v: {}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		resets = append(resets, w)
		for c := range e.children[w] {
			if _, ok := tagged[c]; !ok {
				tagged[c] = struct{}{}
				queue = append(queue, c)
			}
		}
	}
	for _, w := range resets {
		e.x[w] = zero
		e.setParent(w, engine.NoParent)
	}
	st.Resets += len(resets)

	// Recompute from intact offers, then propagate improvements.
	for _, w := range resets {
		if !e.g.Alive(w) {
			continue
		}
		best := e.a.InitMessage(w)
		bestFrom := engine.NoParent
		for _, ie := range e.g.In(w) {
			src := ie.To
			if _, isReset := tagged[src]; isReset && e.x[src] == zero {
				continue
			}
			if e.x[src] == zero {
				continue
			}
			offer := sr.Times(e.x[src], e.a.EdgeWeight(e.g, src, graph.Edge{To: w, W: ie.W}))
			st.Activations++
			if sr.Plus(best, offer) != best {
				best = offer
				bestFrom = src
			}
		}
		if best != zero && sr.Plus(e.x[w], best) != e.x[w] {
			e.x[w] = best
			e.setParent(w, bestFrom)
			e.propagateImprovement(w, st)
		}
	}
}
