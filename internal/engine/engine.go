// Package engine implements the parallel asynchronous accumulative iterative
// engine of Equation (1)/(2): repeated application of the message-generation
// operation F over out-edges and the aggregation G per destination vertex
// until no significant messages remain.
//
// The engine operates on a Frame — a semiring-weighted projection of a graph
// under an algorithm — or on any Rows view of one, rather than on the graph
// directly, so one propagation loop serves four roles: the batch "Restart"
// baseline, the propagation core of the incremental engines, Layph's local
// per-subgraph fixpoints (shortcut deduction, shortcut patches and message
// upload, over absorbing views of the subgraph frames), and Layph's global
// iteration on the upper-layer skeleton (whose edges are shortcuts, not
// graph edges).
//
// The loop is Runner's. A Runner works in place on the caller's state and
// parent vectors, takes its start as seeds — (vertex, message, source) — and
// keeps its buffers across runs, clearing only what a run touched, so an
// incremental run costs in proportion to what it reaches rather than to the
// frame. Run is its one-shot form for batch computations: it copies its
// inputs and runs a fresh Runner.
//
// A run takes one of two schedules, chosen by its semiring:
//
//   - Rounds: an idempotent (min) run goes in synchronous rounds over
//     Workers goroutines. Every active vertex applies its pending message,
//     the emitted messages are folded per destination behind a merge
//     barrier, and the next round is the set of vertices the fold improved.
//   - Worklist: a sum run, from a few seeds or from m0 on every vertex
//     alike, is one sequential in-place FIFO worklist, the accumulative
//     scheduling of Maiter (Zhang et al., TPDS 2014). A message is added to
//     its target's pending delta at once, and a queued vertex keeps folding
//     what arrives until it is popped, so it moves a delta on without
//     waiting a round for it. Workers does not apply, so a sum run's result
//     is the same bit for bit whatever its value. On a dense start (UK ×1
//     PageRank from m0, 2 vCPUs) the worklist spent 24.0 M activations in
//     0.32–0.48 s where the rounds spent 41.2 M in 0.99–1.22 s at 2
//     workers; a machine with more cores is unverified.
//
// No option selects the schedule: a Runner and the one-shot Run given the
// same inputs take the same one and agree bit for bit.
package engine

import (
	"math"
	"runtime"
	"slices"
	"sync"

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
	// Workers is the parallelism degree of an idempotent (min) run, which
	// goes in rounds (default GOMAXPROCS). A sum run is the sequential
	// worklist whatever its value.
	Workers int
	// MaxRounds bounds the rounds — the worklist's queue generations — as a
	// safety net (default 1_000_000).
	MaxRounds int
	// Tolerance is the worklist's message-significance threshold, so it
	// applies to sum runs only: a pending delta with |m| <= Tolerance does
	// not activate its vertex.
	Tolerance float64
	// TrackParents maintains, for idempotent semirings, the dependency
	// parent of every state (the in-neighbor whose message set it). Run
	// allocates the parent vector; Runner.Run writes into the one its caller
	// passes and panics when the option is set without one.
	TrackParents bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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
	// Rounds is the number of synchronized propagation rounds executed; on
	// the worklist, the number of queue generations (the initial active
	// set, then the vertices queued while the previous generation ran).
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
// its working buffers — pending messages and their sources, per-worker
// message buffers, epoch-stamped touched, changed and per-round seen sets,
// the worklist's ring and queued flags — across calls. Every buffer grows
// on demand and is cleared through what the run touched, so a run costs
// time and memory in proportion to the vertices it reaches, not to the
// frame. A Runner serves one semiring and one run at a time; its zero
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
	// whose state the run changed; seen the vertices a round's merge
	// reached, in first-touch order.
	activated scratch.Set
	changed   scratch.Set
	seen      scratch.Set
	active    []graph.VertexID
	bufs      []*msgBuffer
	acts      []int64
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
// The schedule follows from the semiring (see the package doc): an
// idempotent run goes in rounds, a sum run as the worklist.
//
// Semantics per round: every active vertex applies its pending aggregated
// message to its state with ⊕, keeping the better value and recording the
// parent, then emits F(x, w) = x ⊗ w along each out-edge. Messages are
// folded per destination with ⊕ and the next active set is the set of
// vertices whose pending message improves their state.
//
// On the worklist, a popped vertex whose pending delta is no longer
// significant is skipped (an activated vertex of the first generation is
// not); otherwise it accumulates the delta into its state and adds
// val ⊗ w to each target's pending delta, queueing a target that is not
// queued once its delta turns significant. A run cut by MaxRounds drops
// the deltas still in flight, as a cut run in rounds does.
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

	var res Result
	if !r.idem {
		res = r.worklist(f, x, active, opt)
	} else {
		res = r.rounds(f, x, parent, active, opt)
	}

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

// rounds runs an idempotent fixpoint in synchronous rounds from active.
func (r *Runner) rounds(f Rows, x []float64, parent []graph.VertexID, active []graph.VertexID, opt Options) Result {
	n := f.N()
	// The worker count is fixed by the initial active set, so the message
	// folding order — and with it the whole run — is reproducible for a
	// fixed opt.Workers.
	workers := min(opt.workers(), len(active))
	for len(r.bufs) < workers {
		r.bufs = append(r.bufs, &msgBuffer{})
	}
	for _, b := range r.bufs[:workers] {
		b.grow(n)
	}
	if cap(r.acts) < workers {
		r.acts = make([]int64, workers)
	}

	var res Result
	for rounds := 0; len(active) > 0 && rounds < opt.maxRounds(); rounds++ {
		res.Rounds++
		// Process phase: partition the active list, apply pending messages,
		// emit F over out-edges into per-worker buffers. One worker runs
		// inline.
		w := min(workers, len(active))
		acts := r.acts[:w]
		if w == 1 {
			acts[0] = r.process(f, x, parent, active, r.bufs[0])
		} else {
			r.fanOut(f, x, parent, active, acts)
		}
		for _, a := range acts {
			res.Activations += a
		}

		// Merge phase: fold worker buffers into pending in fixed buffer
		// order, rebuild the active set in first-touch order.
		active = active[:0]
		r.seen.Reset(0)
		for _, buf := range r.bufs[:w] {
			for _, v := range buf.changed {
				r.changed.Add(v)
			}
			buf.changed = buf.changed[:0]
			for _, v := range buf.touched {
				val := buf.vals[v]
				r.touched.Add(v)
				if r.sr.Plus(r.pending[v], val) != r.pending[v] {
					r.pending[v] = val
					if parent != nil {
						r.from[v] = buf.from[v]
					}
				}
				r.seen.Add(v)
				buf.clear(v)
			}
			buf.touched = buf.touched[:0]
		}
		for _, v := range r.seen.List {
			if r.sr.Plus(x[v], r.pending[v]) != x[v] {
				active = append(active, v)
			}
		}
	}
	r.active = active[:0]
	return res
}

// worklist runs a sum-semiring fixpoint from active as one in-place FIFO
// worklist. When active is the explicit Activate set, its vertices apply
// their pending delta however small.
func (r *Runner) worklist(f Rows, x []float64, active []graph.VertexID, opt Options) Result {
	n := f.N()
	forced := len(r.activated.List) > 0
	if len(r.ring) < n {
		r.ring = make([]graph.VertexID, n+n/2)
		r.queued = make([]bool, n+n/2)
	}
	ring, queued, pending := r.ring[:n], r.queued, r.pending
	tol, maxRounds := opt.Tolerance, opt.maxRounds()
	head, size := 0, copy(ring, active)
	for _, v := range active {
		queued[v] = true
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
				queued[e.To] = true
				tail := head + size
				if tail >= n {
					tail -= n
				}
				ring[tail] = e.To
				size++
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

// fanOut runs the process phase of one round on len(acts) workers, one
// contiguous chunk of active each.
func (r *Runner) fanOut(f Rows, x []float64, parent []graph.VertexID, active []graph.VertexID, acts []int64) {
	w := len(acts)
	chunk := (len(active) + w - 1) / w
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		lo := min(wi*chunk, len(active))
		hi := min(lo+chunk, len(active))
		wg.Add(1)
		go func(wi int, part []graph.VertexID) {
			defer wg.Done()
			acts[wi] = r.process(f, x, parent, part, r.bufs[wi])
		}(wi, active[lo:hi])
	}
	wg.Wait()
}

// process applies the pending messages of part and emits its out-edge
// messages into buf. Returns the F applications that emitted a message.
func (r *Runner) process(f Rows, x []float64, parent []graph.VertexID, part []graph.VertexID, buf *msgBuffer) int64 {
	sr, zero := r.sr, r.zero
	var emitted int64
	for _, v := range part {
		if cand := sr.Plus(x[v], r.pending[v]); cand != x[v] {
			x[v] = cand
			if parent != nil {
				parent[v] = r.from[v]
			}
			buf.changed = append(buf.changed, v)
		}
		val := x[v]
		if val == zero {
			continue
		}
		for _, e := range f.Row(v) {
			msg := sr.Times(val, e.W)
			if msg == zero {
				continue
			}
			emitted++
			buf.fold(sr, e.To, msg, v)
		}
	}
	return emitted
}

// msgBuffer is one worker's per-round message store: the folded message
// and its sender per destination, plus the destinations in
// first-touch order and the states the worker changed. vals and inUse are
// clear outside touched.
type msgBuffer struct {
	vals    []float64
	from    []graph.VertexID
	inUse   []bool
	touched []graph.VertexID
	changed []graph.VertexID
}

// grow makes the buffer cover vertex ids below n.
func (b *msgBuffer) grow(n int) {
	if len(b.vals) >= n {
		return
	}
	c := n + n/2
	b.vals = append(b.vals, make([]float64, c-len(b.vals))...)
	b.inUse = append(b.inUse, make([]bool, c-len(b.inUse))...)
	b.from = append(b.from, make([]graph.VertexID, c-len(b.from))...)
}

func (b *msgBuffer) fold(sr algo.Semiring, v graph.VertexID, msg float64, src graph.VertexID) {
	if !b.inUse[v] {
		b.inUse[v] = true
		b.vals[v], b.from[v] = msg, src
		b.touched = append(b.touched, v)
		return
	}
	folded := sr.Plus(b.vals[v], msg)
	if folded != b.vals[v] {
		b.from[v] = src
	}
	b.vals[v] = folded
}

func (b *msgBuffer) clear(v graph.VertexID) {
	b.inUse[v] = false
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
