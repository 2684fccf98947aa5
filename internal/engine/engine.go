// Package engine implements the asynchronous accumulative iterative engine
// of Equation (1)/(2): repeated application of the message-generation
// operation F over out-edges and the aggregation G per destination vertex
// until no significant messages remain.
//
// The engine operates on a Frame — a semiring-weighted projection of a graph
// under an algorithm — or on any Rows view of one, rather than on the graph
// directly, so one propagation loop serves four roles: the batch "Restart"
// baseline, the propagation core of the incremental engines, Layph's local
// per-subgraph fixpoints (shortcut deduction, min-scheme shortcut
// revisions and message upload, over absorbing views of the subgraph
// frames), and Layph's global iteration on the upper-layer skeleton (whose
// edges are shortcuts, not graph edges).
//
// The loop is Runner's. A Runner works in place on the caller's state and
// parent vectors, takes its start as seeds — (vertex, message, source) — and
// keeps its buffers across runs, clearing only what a run touched, so an
// incremental run costs in proportion to what it reaches rather than to the
// frame. Run is its one-shot form for batch computations: it copies its
// inputs and runs a fresh Runner.
//
// Every run, whatever its semiring and however large its start, is one
// sequential in-place FIFO worklist. A popped vertex sends its value along
// its row, and a target takes what arrives at once, so it passes an
// improvement on without waiting a round for it:
//
//   - Min (idempotent): a message that improves its target's state sets the
//     state and the dependency parent and queues the target — the FIFO
//     label-correcting order of Bellman–Ford–Moore.
//   - Sum: a message is added to its target's pending delta, and a queued
//     vertex keeps folding what arrives until it is popped — the
//     accumulative scheduling of Maiter (Zhang et al., TPDS 2014). On a
//     dense start (UK ×1 PageRank from m0, 2 vCPUs) the worklist spent
//     24.0 M activations in 0.32–0.48 s where synchronous rounds had spent
//     41.2 M in 0.99–1.22 s at 2 workers; a machine with more cores is
//     unverified.
//
// The engine starts no goroutine and has no schedule option: a Runner and
// the one-shot Run given the same inputs agree bit for bit, states and
// parents alike. Parallelism lives in the callers, which run independent
// frames (Layph's subgraphs) on their own pools.
package engine

import (
	"math"
	"slices"

	"layph/internal/algo"
	"layph/internal/graph"
	"layph/internal/scratch"
)

// WEdge is a directed edge annotated with its semiring weight (the value F
// composes messages with via ⊗).
type WEdge struct {
	To graph.VertexID
	W  float64
}

// Rows is what a Runner propagates over: the out-rows of semiring-weighted
// edges of a dense ID space [0, N()). A Frame stores them; a view may
// derive them from one, as Layph's absorbing frames empty the rows of
// entry vertices.
type Rows interface {
	N() int
	Row(v graph.VertexID) []WEdge
}

// Frame is the message-passing structure: per-vertex out-lists of
// semiring-weighted edges over a dense ID space. The incremental engines
// replace rows in place between runs.
type Frame struct {
	Out [][]WEdge
}

// N returns the size of the frame's ID space.
func (f *Frame) N() int { return len(f.Out) }

// Row returns v's out-list.
func (f *Frame) Row(v graph.VertexID) []WEdge { return f.Out[v] }

// NumEdges returns the total weighted-edge count.
func (f *Frame) NumEdges() int {
	n := 0
	for _, l := range f.Out {
		n += len(l)
	}
	return n
}

// BuildFrame projects g under a: every live edge u→v becomes a WEdge with
// weight a.EdgeWeight. All rows are packed into one contiguous backing
// array, so a batch run walks the edges in order, and each row's capacity
// is clamped to its length, so an append to a row reallocates it instead of
// clobbering its neighbour. Dead vertices get empty rows.
func BuildFrame(g *graph.Graph, a algo.Algorithm) *Frame {
	n := g.Cap()
	out := make([][]WEdge, n)
	edges := make([]WEdge, 0, g.NumEdges())
	for u := 0; u < n; u++ {
		if !g.Alive(graph.VertexID(u)) {
			continue
		}
		lo := len(edges)
		for _, e := range g.Out(graph.VertexID(u)) {
			edges = append(edges, WEdge{To: e.To, W: a.EdgeWeight(g, graph.VertexID(u), e)})
		}
		if hi := len(edges); hi > lo {
			out[u] = edges[lo:hi:hi]
		}
	}
	return &Frame{Out: out}
}

// InitVectors returns x0 and m0 vectors sized to g's ID space per the
// algorithm's definitions; tombstoned vertices get the semiring zero for both.
func InitVectors(g *graph.Graph, a algo.Algorithm) (x0, m0 []float64) {
	sr := a.Semiring()
	x0 = make([]float64, g.Cap())
	m0 = make([]float64, g.Cap())
	for i := range x0 {
		x0[i] = sr.Zero()
		m0[i] = sr.Zero()
	}
	g.Vertices(func(v graph.VertexID) {
		x0[v] = a.InitState(v)
		m0[v] = a.InitMessage(v)
	})
	return x0, m0
}

// NoParent marks the absence of a dependency parent.
const NoParent = graph.VertexID(math.MaxUint32)

// Options tunes a Run.
type Options struct {
	// MaxRounds bounds the worklist's queue generations as a safety net
	// (default 1_000_000).
	MaxRounds int
	// Tolerance is the message-significance threshold of sum runs: a
	// pending delta with |m| <= Tolerance does not activate its vertex.
	// Min runs ignore it.
	Tolerance float64
	// TrackParents maintains, for idempotent semirings, the dependency
	// parent of every state (the in-neighbor whose message set it). Run
	// allocates the parent vector; Runner.Run writes into the one its caller
	// passes and panics when the option is set without one.
	TrackParents bool
}

func (o Options) maxRounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 1_000_000
}

// Result is the outcome of a Run.
type Result struct {
	// X holds the converged vertex states and Parent the dependency parents
	// when Options.TrackParents was set (one-shot Run; a Runner leaves both
	// nil, its results being in the caller's vectors).
	X      []float64
	Parent []graph.VertexID
	// Activations counts F applications that emitted a non-zero message
	// (the paper's "edge activations", Figures 1 and 6).
	Activations int64
	// Rounds is the number of queue generations: the initial active set,
	// then the vertices queued while the previous generation ran.
	Rounds int
	// Changed lists the vertices whose state changed, in first-change
	// order. A Runner owns it until its next run.
	Changed []graph.VertexID
}

// Run executes the fixpoint over the frame once. x0 and m0 must have length
// f.N(); they are not mutated. The returned Result owns its slices. Run is
// the one-shot form of Runner: it copies x0, seeds every message of m0 that
// differs from the semiring zero and runs a fresh Runner, so the batch
// computations and the incremental engines share one propagation loop.
func Run(f *Frame, sr algo.Semiring, x0, m0 []float64, opt Options) *Result {
	n := f.N()
	if len(x0) != n || len(m0) != n {
		panic("engine: x0/m0 length mismatch")
	}
	r := NewRunner(sr)
	zero := sr.Zero()
	for v, m := range m0 {
		if m != zero {
			r.Seed(graph.VertexID(v), m, NoParent)
		}
	}
	x := append([]float64(nil), x0...)
	var parent []graph.VertexID
	if opt.TrackParents && sr.Idempotent() {
		parent = make([]graph.VertexID, n)
		for i := range parent {
			parent[i] = NoParent
		}
	}
	res := r.Run(f, x, parent, opt)
	res.X, res.Parent = x, parent
	return &res
}

// Runner runs the fixpoint in place on a caller's state vector and keeps
// its working buffers — pending messages and their sources, epoch-stamped
// touched and changed sets, the worklist's ring and queued flags — across
// calls. Every buffer grows on demand and is cleared through what the run
// touched, so a run costs time and memory in proportion to the vertices it
// reaches, not to the frame. A Runner serves one semiring and one run at a time; its zero
// value is not usable (NewRunner).
//
// A run starts from seeds: Seed folds a message, with the source that sent
// it, into a vertex's pending message, and Activate puts a vertex in the
// initial active set. Run consumes both.
type Runner struct {
	sr   algo.Semiring
	zero float64
	idem bool

	// pending[v] is the semiring zero except at touched vertices; from[v]
	// (idempotent) is the source of pending[v], valid at touched vertices.
	pending []float64
	from    []graph.VertexID
	touched scratch.Set
	// activated is the explicit initial active set; changed the vertices
	// whose state the run changed.
	activated scratch.Set
	changed   scratch.Set
	active    []graph.VertexID
	// ring is the worklist's FIFO and queued its membership flags; both
	// cover the largest frame served, and queued is false outside a run.
	ring   []graph.VertexID
	queued []bool
}

// NewRunner returns an empty Runner for semiring sr.
func NewRunner(sr algo.Semiring) *Runner {
	r := &Runner{sr: sr, zero: sr.Zero(), idem: sr.Idempotent()}
	r.touched.Reset(0)
	r.activated.Reset(0)
	return r
}

// grow makes pending and from cover vertex ids below n.
func (r *Runner) grow(n int) {
	if len(r.pending) >= n {
		return
	}
	c := n + n/2
	pending := make([]float64, c)
	copy(pending, r.pending)
	for i := len(r.pending); i < c; i++ {
		pending[i] = r.zero
	}
	r.pending = pending
	if r.idem {
		from := make([]graph.VertexID, c)
		copy(from, r.from)
		r.from = from
	}
}

// Seed folds message m, sent by src, into v's pending message: the better
// one under ⊕ for idempotent semirings (a tie keeps the earlier source), the
// sum otherwise. A value the run sets from the seed takes src as its
// dependency parent.
func (r *Runner) Seed(v graph.VertexID, m float64, src graph.VertexID) {
	r.grow(int(v) + 1)
	r.touched.Add(v)
	if !r.idem {
		r.pending[v] += m
		return
	}
	if p := r.sr.Plus(r.pending[v], m); p != r.pending[v] {
		r.pending[v], r.from[v] = p, src
	}
}

// Activate puts v in the initial active set of the next run: v applies its
// pending message and propagates its state even if the message does not
// improve it (re-seeding from reset frontiers needs that).
func (r *Runner) Activate(v graph.VertexID) { r.activated.Add(v) }

// Run executes the fixpoint over the rows in place on x, which must have
// length f.N(), and consumes the seeds. The initial active set is the
// Activate set in call order when there is one; otherwise every seeded
// vertex whose pending message is significant — not the semiring zero for
// idempotent semirings, above opt.Tolerance otherwise — in ascending ID
// order. With a non-nil parent (idempotent semirings only) every state the
// run sets records its dependency parent there: the in-run sender, or the
// seed's source. opt.TrackParents asks for parents: with an idempotent
// semiring it requires a parent vector, so no caller sets it and silently
// gets none.
//
// The run is one FIFO worklist (see the package doc), started with the
// initial active set as its first queue generation.
//
// Min: the active vertices first apply their seeds, a seed that improves
// its vertex setting the state and taking the seed's source as parent.
// Then a popped vertex sends x[v] ⊗ w along its row, and a target the
// message improves takes it at once, records v as its parent, and is
// queued unless it already is. Every vertex of the initial active set
// propagates, improved or not (re-seeding from reset frontiers needs
// that).
//
// Sum: a popped vertex whose pending delta is no longer significant is
// skipped (an activated vertex of the first generation is not); otherwise
// it accumulates the delta into its state and adds val ⊗ w to each
// target's pending delta, queueing a target that is not queued once its
// delta turns significant.
//
// A run cut by MaxRounds drops what is still queued or in flight and
// leaves the Runner clean.
func (r *Runner) Run(f Rows, x []float64, parent []graph.VertexID, opt Options) Result {
	n := f.N()
	if len(x) != n || (parent != nil && len(parent) != n) {
		panic("engine: state/parent length mismatch")
	}
	if opt.TrackParents && r.idem && parent == nil {
		panic("engine: TrackParents without a parent vector")
	}
	if !r.idem {
		parent = nil
	}
	r.grow(n)
	r.changed.Reset(0)
	active := r.active[:0]
	if len(r.activated.List) > 0 {
		active = append(active, r.activated.List...)
	} else {
		slices.Sort(r.touched.List)
		for _, v := range r.touched.List {
			if r.pending[v] != r.zero && (r.idem || math.Abs(r.pending[v]) > opt.Tolerance) {
				active = append(active, v)
			}
		}
	}
	r.active = active[:0]

	if r.idem {
		for _, v := range active {
			if cand := r.sr.Plus(x[v], r.pending[v]); cand != x[v] {
				x[v] = cand
				if parent != nil {
					parent[v] = r.from[v]
				}
				r.changed.Add(v)
			}
		}
	}
	res := r.worklist(f, x, parent, active, opt)

	// Leave every buffer clean for the next run: a run cut by MaxRounds
	// may still hold messages in flight.
	for _, v := range r.touched.List {
		r.pending[v] = r.zero
	}
	r.touched.Reset(0)
	r.activated.Reset(0)
	res.Changed = r.changed.List
	return res
}

// worklist runs the fixpoint from active as one in-place FIFO worklist.
// When active is the explicit Activate set, its vertices propagate in the
// first generation however small their sum delta.
func (r *Runner) worklist(f Rows, x []float64, parent []graph.VertexID, active []graph.VertexID, opt Options) Result {
	n := f.N()
	forced := len(r.activated.List) > 0
	if len(r.ring) < n {
		r.ring = make([]graph.VertexID, n+n/2)
		r.queued = make([]bool, n+n/2)
	}
	sr, zero := r.sr, r.zero
	ring, queued, pending := r.ring[:n], r.queued, r.pending
	tol, maxRounds := opt.Tolerance, opt.maxRounds()
	head, size := 0, copy(ring, active)
	for _, v := range active {
		queued[v] = true
	}
	push := func(t graph.VertexID) {
		queued[t] = true
		tail := head + size
		if tail >= n {
			tail -= n
		}
		ring[tail] = t
		size++
	}

	var res Result
	// gen counts the pops left in the current queue generation.
	for gen := 0; size > 0; {
		if gen == 0 {
			if res.Rounds == maxRounds {
				break
			}
			res.Rounds++
			gen = size
		}
		v := ring[head]
		if head++; head == n {
			head = 0
		}
		size--
		gen--
		queued[v] = false
		if r.idem {
			val := x[v]
			if val == zero {
				continue
			}
			for _, e := range f.Row(v) {
				msg := sr.Times(val, e.W)
				if msg == zero {
					continue
				}
				res.Activations++
				t := e.To
				if cand := sr.Plus(x[t], msg); cand != x[t] {
					x[t] = cand
					if parent != nil {
						parent[t] = v
					}
					r.changed.Add(t)
					if !queued[t] {
						push(t)
					}
				}
			}
			continue
		}
		val := pending[v]
		if math.Abs(val) <= tol && !(forced && res.Rounds == 1) {
			continue
		}
		pending[v] = 0
		x[v] += val
		if val == 0 {
			continue
		}
		r.changed.Add(v)
		for _, e := range f.Row(v) {
			msg := val * e.W
			if msg == 0 {
				continue
			}
			res.Activations++
			// A non-zero pending delta is already in touched.
			p := pending[e.To]
			if p == 0 {
				r.touched.Add(e.To)
			}
			p += msg
			pending[e.To] = p
			if math.Abs(p) > tol && !queued[e.To] {
				push(e.To)
			}
		}
	}
	// A run cut by MaxRounds leaves vertices queued.
	for ; size > 0; size-- {
		queued[ring[head]] = false
		if head++; head == n {
			head = 0
		}
	}
	return res
}

// RunBatch executes the algorithm on the graph from scratch — the paper's
// "Restart" baseline. Convergence tolerance is taken from the algorithm.
func RunBatch(g *graph.Graph, a algo.Algorithm, opt Options) *Result {
	f := BuildFrame(g, a)
	x0, m0 := InitVectors(g, a)
	if opt.Tolerance == 0 {
		opt.Tolerance = a.Tolerance()
	}
	return Run(f, a.Semiring(), x0, m0, opt)
}
