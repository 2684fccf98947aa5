// Package kickstarter reimplements the algorithmic strategy of KickStarter
// (Vora et al., ASPLOS 2017): incremental computation for monotonic
// (min-semiring) algorithms via trimmed approximations. A dependency tree
// memoizes, for every vertex, the in-neighbor that determined its converged
// value. On edge deletions the invalidated dependency subtrees are trimmed
// (reset), and a synchronous pull-based correction loop recomputes trimmed
// vertices from all their in-neighbors until values settle.
//
// The defining difference from Ingress's memoization-path engine is the
// pull-based correction: every re-evaluated vertex aggregates over its whole
// in-edge list (one F application per in-edge), which is simpler and matches
// the published system's iterative value-correction, but performs measurably
// more edge activations than push-based revision messages — the gap the
// paper's Figures 1 and 6 report.
//
// Like the original system, this engine only supports algorithms with the
// single-dependency property (SSSP, BFS — not PageRank or PHP).
package kickstarter

import (
	"fmt"
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/scratch"
)

// Engine is a KickStarter instance bound to one graph and one algorithm.
type Engine struct {
	g      *graph.Graph
	a      algo.Algorithm
	x      []float64
	parent []graph.VertexID
	// InitialStats records the cost of the initial batch run.
	InitialStats inc.Stats

	trim   inc.Trimmer
	inWork scratch.Set // vertices on the correction worklist
}

// New builds the engine and runs the batch computation, memoizing the value
// dependency tree. It panics for non-idempotent algorithms, which violate
// the single-dependency requirement.
func New(g *graph.Graph, a algo.Algorithm) *Engine {
	if !a.Semiring().Idempotent() {
		panic(fmt.Sprintf("kickstarter: %s is not a single-dependency (idempotent) algorithm", a.Name()))
	}
	e := &Engine{g: g, a: a}
	start := time.Now()
	res := engine.RunBatch(g, a, engine.Options{TrackParents: true})
	e.x = res.X
	e.parent = res.Parent
	e.InitialStats = inc.Stats{Activations: res.Activations, Rounds: res.Rounds, Duration: time.Since(start)}
	return e
}

// Name returns "kickstarter".
func (e *Engine) Name() string { return "kickstarter" }

// States returns the converged states (live view; do not mutate).
func (e *Engine) States() []float64 { return e.x }

// succ visits v's out-neighbours in the graph: the rows Trim walks.
func (e *Engine) succ(v graph.VertexID, visit func(graph.VertexID)) {
	for _, oe := range e.g.Out(v) {
		visit(oe.To)
	}
}

// Update trims the dependency subtrees invalidated by the batch and runs the
// pull-based correction loop.
func (e *Engine) Update(applied *delta.Applied) inc.Stats {
	start := time.Now()
	sr := e.a.Semiring()
	zero := sr.Zero()
	n := e.g.Cap()
	e.x = inc.GrowVectors(e.x, n, zero)
	e.parent = inc.GrowParents(e.parent, n)

	var st inc.Stats

	// Trim phase: reset the dependency subtrees the batch invalidated. The
	// correction loop re-derives trimmed values by pulling (and counts
	// those pulls).
	e.trim.Trim(e.x, e.parent, zero, applied, nil, e.succ)
	st.Resets = len(e.trim.Tagged.List)

	inWork := &e.inWork
	inWork.Reset(n)
	var work []graph.VertexID
	push := func(v graph.VertexID) {
		if int(v) < n && e.g.Alive(v) && inWork.Add(v) {
			work = append(work, v)
		}
	}
	for _, v := range e.trim.Tagged.List {
		push(v)
	}
	for _, ed := range applied.AddedEdges {
		push(ed.To)
	}
	for _, v := range applied.AddedVertices {
		e.x[v] = e.a.InitState(v)
		e.parent[v] = engine.NoParent
		push(v)
	}

	// Correction phase: synchronous pull-based re-evaluation. Each worklist
	// vertex recomputes its value over its full in-edge list; improvements
	// schedule the out-neighbors.
	for len(work) > 0 {
		st.Rounds++
		next := work[:0:0]
		inWork.Reset(n)
		for _, v := range work {
			best := e.a.InitMessage(v)
			bestFrom := engine.NoParent
			for _, ie := range e.g.In(v) {
				u := ie.To
				if e.x[u] == zero {
					continue
				}
				offer := sr.Times(e.x[u], e.a.EdgeWeight(e.g, u, graph.Edge{To: v, W: ie.W}))
				st.Activations++
				if sr.Plus(best, offer) != best {
					best = offer
					bestFrom = u
				}
			}
			if best != e.x[v] {
				e.x[v] = best
				e.parent[v] = bestFrom
				for _, oe := range e.g.Out(v) {
					if inWork.Add(oe.To) {
						next = append(next, oe.To)
					}
				}
			} else if e.parent[v] == engine.NoParent && best != zero && bestFrom != engine.NoParent {
				e.parent[v] = bestFrom
			}
		}
		work = next
	}
	st.Duration = time.Since(start)
	return st
}
