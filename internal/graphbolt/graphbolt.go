// Package graphbolt reimplements the algorithmic strategy of GraphBolt
// (Mariappan & Vora, EuroSys 2019): dependency-driven synchronous
// incremental processing for accumulative (sum-semiring) algorithms.
//
// The batch run memoizes the full per-iteration state sequence x_0, x_1, …,
// x_T of the synchronous (Jacobi) iteration
//
//	x_i(v) = m0(v) + Σ_{(u,v)∈E} w(u,v) · x_{i-1}(u).
//
// On an update, the engine walks the iterations in order, re-aggregating
// exactly the vertices whose inputs changed — structurally dirty vertices
// (an in-edge or an in-weight changed) at every iteration, plus the
// out-neighbors of vertices whose previous-iteration value changed —
// and refines the memoized sequence until it re-converges. Re-aggregation is
// pull-based over the vertex's whole in-edge list, which is GraphBolt's
// model and the reason for its high edge-activation counts on small deltas.
//
// ModeSparseAware adds DZiG's (Mariappan, Che & Vora, EuroSys 2021)
// sparsity-aware refinement: when the changed set is sparse, value *changes*
// are pushed along out-edges instead of re-pulling whole in-lists, which
// collapses the activation count for small batches while producing the same
// states (the iteration is linear).
//
// Like the original systems, only non-idempotent algorithms (PageRank, PHP)
// are supported.
package graphbolt

import (
	"fmt"
	"math"
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Mode selects the refinement strategy.
type Mode int

const (
	// ModePull is classic GraphBolt: pull-based re-aggregation.
	ModePull Mode = iota
	// ModeSparseAware is DZiG: push value deltas while the frontier is
	// sparse, fall back to pulls when it densifies.
	ModeSparseAware
)

// DensityThreshold is the changed-set fraction above which ModeSparseAware
// falls back to pull-based refinement (DZiG's density switch).
const DensityThreshold = 0.2

// Engine is a GraphBolt/DZiG instance bound to one graph and one algorithm.
type Engine struct {
	g    *graph.Graph
	a    algo.Algorithm
	mode Mode
	eps  float64
	// levels[i][v] is the memoized synchronous state x_i(v).
	levels [][]float64
	// InitialStats records the cost of the initial batch run.
	InitialStats inc.Stats

	maxLevels int
}

// New builds the engine and runs the synchronous batch computation,
// memoizing every iteration's states. It panics for idempotent algorithms
// (GraphBolt provides no SSSP/BFS implementations, as noted in the paper).
func New(g *graph.Graph, a algo.Algorithm, mode Mode) *Engine {
	if a.Semiring().Idempotent() {
		panic(fmt.Sprintf("graphbolt: %s is not an accumulative (sum) algorithm", a.Name()))
	}
	e := &Engine{g: g, a: a, mode: mode, maxLevels: 1000}
	e.eps = a.Tolerance() * 0.01
	if e.eps < 1e-15 {
		e.eps = 1e-15
	}
	start := time.Now()
	x0 := make([]float64, g.Cap())
	g.Vertices(func(v graph.VertexID) { x0[v] = a.InitMessage(v) })
	e.levels = [][]float64{x0}
	var acts int64
	for len(e.levels) < e.maxLevels {
		prev := e.levels[len(e.levels)-1]
		next := make([]float64, g.Cap())
		worst := 0.0
		g.Vertices(func(v graph.VertexID) {
			next[v] = e.aggregate(v, prev, &acts)
			if d := math.Abs(next[v] - prev[v]); d > worst {
				worst = d
			}
		})
		e.levels = append(e.levels, next)
		if worst <= a.Tolerance() {
			break
		}
	}
	e.InitialStats = inc.Stats{
		Activations: acts,
		Rounds:      len(e.levels) - 1,
		Duration:    time.Since(start),
	}
	return e
}

// aggregate pulls v's full in-list against states prev.
func (e *Engine) aggregate(v graph.VertexID, prev []float64, acts *int64) float64 {
	val := e.a.InitMessage(v)
	for _, ie := range e.g.In(v) {
		u := ie.To
		xu := 0.0
		if int(u) < len(prev) {
			xu = prev[u]
		}
		if xu == 0 {
			continue
		}
		val += xu * e.a.EdgeWeight(e.g, u, graph.Edge{To: v, W: ie.W})
		*acts++
	}
	return val
}

// Name returns "graphbolt" or "dzig" depending on the mode.
func (e *Engine) Name() string {
	if e.mode == ModeSparseAware {
		return "dzig"
	}
	return "graphbolt"
}

// States returns the converged states (the last memoized iteration).
func (e *Engine) States() []float64 { return e.levels[len(e.levels)-1] }

// Update refines the memoized iteration sequence against the applied batch.
func (e *Engine) Update(applied *delta.Applied) inc.Stats {
	start := time.Now()
	var st inc.Stats
	n := e.g.Cap()
	for i := range e.levels {
		e.levels[i] = inc.GrowVectors(e.levels[i], n, 0)
	}

	// Structurally dirty targets: any vertex whose in-aggregation formula
	// changed — targets of added/removed edges plus all current out-targets
	// of sources whose out-lists (and hence per-edge weights) changed.
	dirty := make(map[graph.VertexID]struct{})
	sources := make(map[graph.VertexID]struct{})
	for _, l := range [][]graph.DeletedEdge{applied.AddedEdges, applied.RemovedEdges} {
		for _, ed := range l {
			dirty[ed.To] = struct{}{}
			if _, seen := sources[ed.From]; seen || !e.g.Alive(ed.From) {
				continue
			}
			sources[ed.From] = struct{}{}
			for _, oe := range e.g.Out(ed.From) {
				dirty[oe.To] = struct{}{}
			}
		}
	}
	// An added vertex's aggregation formula changed from nonexistent to
	// m0 + in-edges; even without in-edges it must be pulled once per level
	// so its root message materializes at every iteration.
	for _, v := range applied.AddedVertices {
		dirty[v] = struct{}{}
	}

	// Iteration 0 changes: root messages appear (added vertices) or vanish
	// (removed vertices).
	changed := make(map[graph.VertexID]float64) // vertex -> delta at current level
	x0 := e.levels[0]
	for _, v := range applied.AddedVertices {
		if d := e.a.InitMessage(v) - x0[v]; d != 0 {
			x0[v] += d
			changed[v] = d
		}
	}
	for _, v := range applied.RemovedVertices {
		if x0[v] != 0 {
			changed[v] = -x0[v]
			x0[v] = 0
		}
	}

	oldT := len(e.levels) - 1
	for i := 1; i < e.maxLevels; i++ {
		if i > oldT && len(changed) == 0 && len(dirty) == 0 {
			break
		}
		if i >= len(e.levels) {
			// Extend the memoized sequence: the old run had converged, so
			// its hypothetical next level equals its last one.
			e.levels = append(e.levels, append([]float64(nil), e.levels[len(e.levels)-1]...))
		}
		prev := e.levels[i-1]
		cur := e.levels[i]
		next := make(map[graph.VertexID]float64)

		// Affected set: dirty vertices every iteration, plus out-neighbors
		// of previously changed vertices.
		usePush := e.mode == ModeSparseAware &&
			len(changed) < int(DensityThreshold*float64(e.g.NumVertices()))

		pull := make(map[graph.VertexID]struct{}, len(dirty))
		for v := range dirty {
			pull[v] = struct{}{}
		}
		if usePush {
			// DZiG sparse path: push deltas from changed vertices; dirty
			// vertices still need full pulls.
			for u, du := range changed {
				if !e.g.Alive(u) {
					continue
				}
				for _, oe := range e.g.Out(u) {
					v := oe.To
					if _, isDirty := pull[v]; isDirty {
						continue
					}
					contrib := du * e.a.EdgeWeight(e.g, u, graph.Edge{To: v, W: oe.W})
					st.Activations++
					if contrib != 0 {
						next[v] += contrib
					}
				}
			}
			for v, d := range next {
				if math.Abs(d) <= e.eps {
					delete(next, v)
					continue
				}
				cur[v] += d
			}
		} else {
			for u := range changed {
				if !e.g.Alive(u) {
					continue
				}
				for _, oe := range e.g.Out(u) {
					pull[oe.To] = struct{}{}
				}
			}
		}
		for v := range pull {
			var newVal float64
			if e.g.Alive(v) {
				newVal = e.aggregate(v, prev, &st.Activations)
			}
			if d := newVal - cur[v]; math.Abs(d) > e.eps {
				cur[v] = newVal
				next[v] = d
			}
		}
		// Removed vertices hold no state at any level.
		for _, v := range applied.RemovedVertices {
			if cur[v] != 0 {
				next[v] = -cur[v]
				cur[v] = 0
			}
		}
		changed = next
		st.Rounds++

		if i > oldT && maxAbs(changed) <= e.a.Tolerance() {
			// Extended tail has re-converged.
			e.levels = e.levels[:i+1]
			break
		}
		if i == e.maxLevels-1 {
			break
		}
		if i == len(e.levels)-1 && len(changed) == 0 && i >= oldT {
			break
		}
	}
	st.Duration = time.Since(start)
	return st
}

func maxAbs(m map[graph.VertexID]float64) float64 {
	worst := 0.0
	for _, d := range m {
		if a := math.Abs(d); a > worst {
			worst = a
		}
	}
	return worst
}
