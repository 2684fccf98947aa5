package inc

import (
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/scratch"
)

// Kernel is the incremental core of Ingress: the semiring-weighted frame
// of one graph under one algorithm, the memoized states and (idempotent
// scheme) dependency parents, and scratch reused across updates. It has no
// policy of its own: Update runs the scheme the semiring selects over
// whatever the batch touched.
//
// Min-scheme parents come from the fixpoint that set each value — the
// engine's parent tracking plus the source each deduction offer recorded —
// never from matching values after the fact, which picks unsupported
// parents on zero-weight cycles.
type Kernel struct {
	// InitialStats records the cost of the initial batch run.
	InitialStats Stats

	g     *graph.Graph
	a     algo.Algorithm
	sr    algo.Semiring
	zero  float64
	frame *engine.Frame
	x     []float64
	// parent is the dependency parent of every state (idempotent only).
	parent []graph.VertexID

	// Per-update scratch.
	touched scratch.Set      // sources whose rows were re-projected
	oldRows [][]engine.WEdge // sum scheme: pre-update rows, parallel to touched.List
	trim    Trimmer          // min scheme: invalidated vertices
	run     *engine.Runner   // in-place propagation from the update's seeds
}

// NewKernel projects g under a and runs the batch computation to
// convergence at the algorithm's tolerance, memoizing the states and, for
// idempotent semirings, the dependency parents.
func NewKernel(g *graph.Graph, a algo.Algorithm) *Kernel {
	start := time.Now()
	sr := a.Semiring()
	k := &Kernel{g: g, a: a, sr: sr, zero: sr.Zero(), frame: engine.BuildFrame(g, a), run: engine.NewRunner(sr)}
	x0, m0 := engine.InitVectors(g, a)
	res := engine.Run(k.frame, sr, x0, m0, engine.Options{Tolerance: a.Tolerance(), TrackParents: sr.Idempotent()})
	k.x, k.parent = res.X, res.Parent
	k.InitialStats = Stats{Activations: res.Activations, Rounds: res.Rounds, Duration: time.Since(start)}
	return k
}

// States returns the converged states (live view; do not mutate).
func (k *Kernel) States() []float64 { return k.x }

// Parents returns the dependency parent of every state (idempotent
// semirings only; live view, do not mutate).
func (k *Kernel) Parents() []graph.VertexID { return k.parent }

// Update adjusts the memoized states to the applied batch (nil for none).
// The graph must already reflect the batch (delta.Apply first).
func (k *Kernel) Update(applied *delta.Applied) Stats {
	start := time.Now()
	if applied == nil {
		applied = &delta.Applied{}
	}
	n := k.g.Cap()
	k.x = GrowVectors(k.x, n, k.zero)
	k.refreshRows(applied, n)
	var st Stats
	if k.sr.Idempotent() {
		st = k.updateMin(applied, n)
	} else {
		st = k.updateSum(applied)
	}
	st.Duration = time.Since(start)
	return st
}

// refreshRows re-projects the out-row of every source whose semiring
// weights may have changed: sources of added and removed edges (PageRank-
// style weights depend on the source's degree, so any out-list change
// reweights the whole row) and removed vertices. The sum scheme keeps the
// previous rows to cancel their contributions; the min scheme overwrites
// them in place.
func (k *Kernel) refreshRows(applied *delta.Applied, n int) {
	for len(k.frame.Out) < n {
		k.frame.Out = append(k.frame.Out, nil)
	}
	k.touched.Reset(n)
	for _, e := range applied.AddedEdges {
		k.touched.Add(e.From)
	}
	for _, e := range applied.RemovedEdges {
		k.touched.Add(e.From)
	}
	for _, v := range applied.RemovedVertices {
		k.touched.Add(v)
	}
	k.oldRows = k.oldRows[:0]
	for _, u := range k.touched.List {
		es := k.g.Out(u)
		row := k.frame.Out[u][:0]
		if !k.sr.Idempotent() {
			k.oldRows = append(k.oldRows, k.frame.Out[u])
			row = make([]engine.WEdge, 0, len(es))
		}
		for _, e := range es {
			row = append(row, engine.WEdge{To: e.To, W: k.a.EdgeWeight(k.g, u, e)})
		}
		k.frame.Out[u] = row
	}
}

// Succ calls visit for every target of v's current out-row.
type Succ func(v graph.VertexID, visit func(c graph.VertexID))

// RowSucc is the Succ of a row-per-vertex adjacency.
func RowSucc(out [][]engine.WEdge) Succ {
	return func(v graph.VertexID, visit func(graph.VertexID)) {
		for _, e := range out[v] {
			visit(e.To)
		}
	}
}

// Trimmer is the ⊥ cancellation of the idempotent scheme, with its
// scratch reused across updates.
type Trimmer struct {
	// Tagged holds the vertices the last Trim reset.
	Tagged scratch.Set
}

// Trim resets to zero, with no parent, the whole dependency subtrees of
// the targets of removed dependency edges, of removed vertices and of
// extra. parent must cover every vertex id of the batch.
//
// There is no child index: as in KickStarter, the children of a tagged v
// are the vertices on v's current out-row (succ) whose parent is v. Every
// parent is an in-neighbour whose edge was on its row, so a child whose
// parent edge has left the row is already a root — a removed dependency
// edge, or an edge of a removed vertex, which applied.RemovedEdges lists
// too.
func (t *Trimmer) Trim(x []float64, parent []graph.VertexID, zero float64, applied *delta.Applied, extra []graph.VertexID, succ Succ) {
	t.Tagged.Reset(len(parent))
	for _, e := range applied.RemovedEdges {
		if parent[e.To] == e.From {
			t.Tagged.Add(e.To)
		}
	}
	for _, v := range applied.RemovedVertices {
		t.Tagged.Add(v)
	}
	for _, v := range extra {
		t.Tagged.Add(v)
	}
	// The set's insertion-ordered list doubles as the BFS queue.
	var v graph.VertexID
	visit := func(c graph.VertexID) {
		if parent[c] == v {
			t.Tagged.Add(c)
		}
	}
	for i := 0; i < len(t.Tagged.List); i++ {
		v = t.Tagged.List[i]
		succ(v, visit)
	}
	for _, v := range t.Tagged.List {
		x[v] = zero
		parent[v] = engine.NoParent
	}
}

// updateMin is the memoization-path scheme: ⊥-cancel the dependency
// subtrees whose support the update removed, seed them with fresh offers
// from intact in-neighbors, compensate added edges, and propagate.
func (k *Kernel) updateMin(applied *delta.Applied, n int) Stats {
	sr, zero := k.sr, k.zero
	k.parent = GrowParents(k.parent, n)
	var st Stats

	k.trim.Trim(k.x, k.parent, zero, applied, nil, RowSucc(k.frame.Out))
	tagged := &k.trim.Tagged
	st.Resets = len(tagged.List)

	// seed offers m, sent by src, to v when it improves v's state.
	seed := func(v, src graph.VertexID, m float64) {
		if sr.Plus(k.x[v], m) != k.x[v] {
			k.run.Seed(v, m, src)
			k.run.Activate(v)
		}
	}
	weight := func(u, v graph.VertexID, w float64) float64 {
		st.Activations++
		return k.a.EdgeWeight(k.g, u, graph.Edge{To: v, W: w})
	}

	// Fresh offers for reset vertices: the root message plus x(u) ⊗ w(u,v)
	// from every intact in-neighbor.
	for _, v := range tagged.List {
		if !k.g.Alive(v) {
			continue
		}
		if m0 := k.a.InitMessage(v); m0 != zero {
			seed(v, engine.NoParent, m0)
		}
		for _, ie := range k.g.In(v) {
			if u := ie.To; !tagged.Has(u) && k.x[u] != zero {
				seed(v, u, sr.Times(k.x[u], weight(u, v, ie.W)))
			}
		}
	}
	// Compensation for added edges whose target was not reset.
	for _, e := range applied.AddedEdges {
		u, v := e.From, e.To
		if k.g.Alive(u) && k.g.Alive(v) && !tagged.Has(v) && k.x[u] != zero {
			seed(v, u, sr.Times(k.x[u], weight(u, v, e.W)))
		}
	}
	// Added vertices start from their initial state and propagate it even
	// though it does not improve on itself.
	for _, v := range applied.AddedVertices {
		k.x[v] = k.a.InitState(v)
		if m0 := k.a.InitMessage(v); m0 != zero {
			k.run.Seed(v, m0, engine.NoParent)
			k.run.Activate(v)
		}
	}

	res := k.run.Run(k.frame, k.x, k.parent, engine.Options{})
	st.Activations += res.Activations
	st.Rounds = res.Rounds
	return st
}

// updateSum is the memoization-free scheme: every re-projected row cancels
// x(u)·w over its previous edges and compensates over its new ones, added
// vertices contribute their root messages, and the deltas propagate.
func (k *Kernel) updateSum(applied *delta.Applied) Stats {
	var st Stats
	seed := func(v graph.VertexID, m float64) { k.run.Seed(v, m, engine.NoParent) }
	for i, u := range k.touched.List {
		st.Activations += Revise(k.x[u], k.oldRows[i], k.frame.Out[u], seed)
	}
	for _, v := range applied.AddedVertices {
		k.run.Seed(v, k.a.InitMessage(v), engine.NoParent)
	}
	res := k.run.Run(k.frame, k.x, nil, engine.Options{Tolerance: k.a.Tolerance()})
	// A removed vertex's root message was delivered through its (now
	// cancelled) out-edges; the residue parked on the vertex itself goes.
	for _, v := range applied.RemovedVertices {
		k.x[v] = k.zero
	}
	st.Activations += res.Activations
	st.Rounds = res.Rounds
	return st
}

// Revise emits the revision messages of a source with state x whose
// out-row changed from old to fresh: x·w cancelled over old's edges and
// compensated over fresh's. Zero messages are skipped; it returns the
// number emitted.
func Revise(x float64, old, fresh []engine.WEdge, emit func(v graph.VertexID, m float64)) int64 {
	if x == 0 {
		return 0
	}
	var n int64
	for _, e := range old {
		if m := x * e.W; m != 0 {
			emit(e.To, -m)
			n++
		}
	}
	for _, e := range fresh {
		if m := x * e.W; m != 0 {
			emit(e.To, m)
			n++
		}
	}
	return n
}
