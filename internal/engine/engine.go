// Package engine implements the parallel asynchronous accumulative iterative
// engine of Equation (1)/(2): repeated application of the message-generation
// operation F over out-edges and the aggregation G per destination vertex
// until no significant messages remain.
//
// The engine operates on a Frame — a semiring-weighted projection of a graph
// under an algorithm — rather than on the graph directly, so the same runner
// serves four roles: the batch "Restart" baseline, the propagation core of
// the incremental baseline engines, Layph's local per-subgraph fixpoints
// (shortcut deduction and message upload), and Layph's global iteration on
// the upper-layer skeleton (whose edges are shortcuts, not graph edges).
package engine

import (
	"math"
	"runtime"
	"sync"

	"layph/internal/algo"
	"layph/internal/graph"
)

// WEdge is a directed edge annotated with its semiring weight (the value F
// composes messages with via ⊗).
type WEdge struct {
	To graph.VertexID
	W  float64
}

// Frame is the message-passing structure: per-vertex out-lists of
// semiring-weighted edges over a dense ID space. The incremental engines
// replace rows in place between runs.
type Frame struct {
	Out [][]WEdge
}

// N returns the size of the frame's ID space.
func (f *Frame) N() int { return len(f.Out) }

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
	// Workers is the parallelism degree (default GOMAXPROCS).
	Workers int
	// MaxRounds bounds the outer loop as a safety net (default 1_000_000).
	MaxRounds int
	// Tolerance is the message-significance threshold for non-idempotent
	// semirings: pending aggregates with |m| <= Tolerance do not activate.
	Tolerance float64
	// TrackParents maintains, for idempotent semirings, the dependency
	// parent of every state (the in-neighbor whose message set it). The
	// memoization-path incremental engines require it.
	TrackParents bool
	// InitialActive overrides the initial active set. When nil, every vertex
	// whose m0 differs from the semiring zero is active. Vertices in the
	// initial set propagate even if their pending message does not improve
	// their state (needed to re-seed propagation from reset frontiers).
	InitialActive []graph.VertexID
	// TrackChanged collects the set of vertices whose state changed during
	// the run (deduplicated) into Result.Changed.
	TrackChanged bool
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
	// X holds the converged vertex states.
	X []float64
	// Parent holds dependency parents when Options.TrackParents was set.
	Parent []graph.VertexID
	// Activations counts F applications that emitted a non-zero message
	// (the paper's "edge activations", Figures 1 and 6).
	Activations int64
	// Rounds is the number of synchronized propagation rounds executed.
	Rounds int
	// Changed lists the vertices whose state changed, when
	// Options.TrackChanged was set.
	Changed []graph.VertexID
}

// Run executes the fixpoint over the frame. x0 and m0 must have length
// f.N(); they are not mutated. The returned Result owns its slices.
//
// Semantics per round: every active vertex applies its pending aggregated
// message to its state with ⊕ (idempotent semirings keep the better value and
// record the parent; non-idempotent ones accumulate the delta), then emits
// F(val, w) = val ⊗ w along each out-edge, where val is the new state for
// idempotent semirings and the applied delta otherwise. Messages are folded
// per destination with ⊕ and the next active set is the set of vertices whose
// pending aggregate is still significant.
func Run(f *Frame, sr algo.Semiring, x0, m0 []float64, opt Options) *Result {
	n := f.N()
	if len(x0) != n || len(m0) != n {
		panic("engine: x0/m0 length mismatch")
	}
	zero := sr.Zero()
	idem := sr.Idempotent()

	x := append([]float64(nil), x0...)
	pending := append([]float64(nil), m0...)
	pendingFrom := make([]graph.VertexID, 0)
	var parent []graph.VertexID
	if opt.TrackParents && idem {
		parent = make([]graph.VertexID, n)
		pendingFrom = make([]graph.VertexID, n)
		for i := range parent {
			parent[i] = NoParent
			pendingFrom[i] = NoParent
		}
	}

	var active []graph.VertexID
	if opt.InitialActive != nil {
		active = append(active, opt.InitialActive...)
	} else if idem {
		for v := 0; v < n; v++ {
			if pending[v] != zero {
				active = append(active, graph.VertexID(v))
			}
		}
	} else {
		// Non-idempotent: sub-tolerance seeds are ignorable by definition
		// and would otherwise trigger full processing rounds.
		for v := 0; v < n; v++ {
			if math.Abs(pending[v]) > opt.Tolerance {
				active = append(active, graph.VertexID(v))
			}
		}
	}

	workers := opt.workers()
	if workers > len(active) && len(active) > 0 {
		workers = len(active)
	}
	if workers < 1 {
		workers = 1
	}
	bufs := make([]*msgBuffer, workers)
	for i := range bufs {
		bufs[i] = newMsgBuffer(n, parent != nil)
	}
	var changed []bool
	if opt.TrackChanged {
		changed = make([]bool, n)
	}
	// seen/seenList track which vertices received messages this round in
	// first-touch order, so the next active set — and therefore the whole
	// run, message folding included — is reproducible for a fixed worker
	// count (and allocation-free per round, unlike a map).
	seen := make([]bool, n)
	var seenList []graph.VertexID

	res := &Result{Rounds: 0}
	var wg sync.WaitGroup
	for rounds := 0; len(active) > 0 && rounds < opt.maxRounds(); rounds++ {
		res.Rounds++
		// Process phase: partition the active list, apply pending messages,
		// emit F over out-edges into per-worker buffers.
		w := workers
		if w > len(active) {
			w = len(active)
		}
		chunk := (len(active) + w - 1) / w
		acts := make([]int64, w)
		for wi := 0; wi < w; wi++ {
			lo := wi * chunk
			if lo >= len(active) {
				break
			}
			hi := lo + chunk
			if hi > len(active) {
				hi = len(active)
			}
			wg.Add(1)
			go func(wi, lo, hi int) {
				defer wg.Done()
				buf := bufs[wi]
				var emitted int64
				for _, v := range active[lo:hi] {
					var val float64
					if idem {
						cand := pending[v]
						if sr.Plus(x[v], cand) != x[v] {
							x[v] = sr.Plus(x[v], cand)
							if parent != nil {
								parent[v] = pendingFrom[v]
							}
							if changed != nil {
								changed[v] = true
							}
						}
						val = x[v]
					} else {
						val = pending[v]
						pending[v] = zero
						x[v] += val
						if changed != nil && val != zero {
							changed[v] = true
						}
					}
					if val == zero {
						continue
					}
					for _, e := range f.Out[v] {
						msg := sr.Times(val, e.W)
						if msg == zero {
							continue
						}
						emitted++
						buf.fold(sr, e.To, msg, v)
					}
				}
				acts[wi] = emitted
			}(wi, lo, hi)
		}
		wg.Wait()
		for _, a := range acts {
			res.Activations += a
		}

		// Merge phase: fold worker buffers into pending in fixed buffer
		// order, rebuild the active set in first-touch order.
		active = active[:0]
		seenList = seenList[:0]
		for _, buf := range bufs {
			for _, v := range buf.touched {
				val := buf.vals[v]
				if idem {
					if sr.Plus(pending[v], val) != pending[v] {
						pending[v] = val
						if parent != nil {
							pendingFrom[v] = buf.from[v]
						}
					}
				} else {
					pending[v] += val
				}
				if !seen[v] {
					seen[v] = true
					seenList = append(seenList, v)
				}
				buf.clear(v, zero)
			}
			buf.touched = buf.touched[:0]
		}
		for _, v := range seenList {
			seen[v] = false
			if significant(sr, idem, x[v], pending[v], opt.Tolerance) {
				active = append(active, v)
			}
		}
	}

	if changed != nil {
		for v, c := range changed {
			if c {
				res.Changed = append(res.Changed, graph.VertexID(v))
			}
		}
	}
	res.X = x
	res.Parent = parent
	return res
}

func significant(sr algo.Semiring, idem bool, x, pending, tol float64) bool {
	if idem {
		return sr.Plus(x, pending) != x
	}
	return math.Abs(pending) > tol
}

type msgBuffer struct {
	vals    []float64
	from    []graph.VertexID
	inUse   []bool
	touched []graph.VertexID
}

func newMsgBuffer(n int, trackFrom bool) *msgBuffer {
	b := &msgBuffer{
		vals:  make([]float64, n),
		inUse: make([]bool, n),
	}
	if trackFrom {
		b.from = make([]graph.VertexID, n)
	}
	return b
}

func (b *msgBuffer) fold(sr algo.Semiring, v graph.VertexID, msg float64, src graph.VertexID) {
	if !b.inUse[v] {
		b.inUse[v] = true
		b.vals[v] = msg
		if b.from != nil {
			b.from[v] = src
		}
		b.touched = append(b.touched, v)
		return
	}
	folded := sr.Plus(b.vals[v], msg)
	if b.from != nil && folded != b.vals[v] {
		b.from[v] = src
	}
	b.vals[v] = folded
}

func (b *msgBuffer) clear(v graph.VertexID, zero float64) {
	b.vals[v] = zero
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
