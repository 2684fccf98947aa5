package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"layph/internal/algo"
	"layph/internal/graph"
)

// runnerCase is one run's inputs: a frame, start states and seeds.
type runnerCase struct {
	f      *Frame
	x0, m0 []float64
	active []graph.VertexID
}

// randomRunnerCase draws a random frame of n vertices under a, a converged
// start for half the cases (an incremental-style run from a few seeds) and
// the batch start otherwise, and sometimes an explicit active set.
func randomRunnerCase(rng *rand.Rand, a algo.Algorithm, n int) runnerCase {
	g := randomFrameGraph(rng.Int63(), n)
	f := BuildFrame(g, a)
	sr := a.Semiring()
	x0, m0 := InitVectors(g, a)
	if rng.Intn(2) == 0 {
		x0 = Run(f, sr, x0, m0, Options{Tolerance: a.Tolerance()}).X
		for i := range m0 {
			m0[i] = sr.Zero()
		}
		for j := 0; j < 1+rng.Intn(5); j++ {
			v := rng.Intn(n)
			if sr.Idempotent() {
				m0[v] = x0[v] * rng.Float64()
			} else {
				m0[v] = rng.Float64() - 0.5
			}
		}
	}
	c := runnerCase{f: f, x0: x0, m0: m0}
	if rng.Intn(3) == 0 {
		for j := 0; j < 1+rng.Intn(4); j++ {
			c.active = append(c.active, graph.VertexID(rng.Intn(n)))
		}
	}
	return c
}

// runReused runs c in place through r, the way the incremental engines
// seed it.
func runReused(r *Runner, sr algo.Semiring, c runnerCase, opt Options) ([]float64, []graph.VertexID, Result) {
	x := append([]float64(nil), c.x0...)
	var parent []graph.VertexID
	if sr.Idempotent() {
		parent = make([]graph.VertexID, len(x))
		for i := range parent {
			parent[i] = NoParent
		}
	}
	for v, m := range c.m0 {
		if m != sr.Zero() {
			r.Seed(graph.VertexID(v), m, NoParent)
		}
	}
	for _, v := range c.active {
		r.Activate(v)
	}
	return x, parent, r.Run(c.f, x, parent, opt)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRunnerReuseMatchesRun pins that one Runner reused across runs — on
// frames of different sizes, so its buffers grow and are reused by smaller
// frames — leaves nothing behind: every in-place run gives bit-identical
// states, parents and changed sets to the one-shot Run (to a fresh Runner
// when the case activates vertices explicitly), for both semiring kinds and
// three generator seeds.
func TestRunnerReuseMatchesRun(t *testing.T) {
	algos := []algo.Algorithm{algo.NewSSSP(0), algo.NewPageRank(0.85, 1e-9)}
	for _, a := range algos {
		sr := a.Semiring()
		for _, seed := range []int64{1, 2, 8} {
			rng := rand.New(rand.NewSource(seed))
			r := NewRunner(sr)
			for trial := 0; trial < 30; trial++ {
				n := []int{40, 300, 90, 700, 15}[trial%5]
				c := randomRunnerCase(rng, a, n)
				opt := Options{Tolerance: a.Tolerance(), TrackParents: true}
				if trial%7 == 6 {
					opt.maxRounds = 2 // a run cut with messages in flight
				}
				want := Run(c.f, sr, c.x0, c.m0, opt)
				if c.active != nil {
					x, parent, res := runReused(NewRunner(sr), sr, c, opt)
					res.X, res.Parent = x, parent
					want = &res
				}
				x, parent, got := runReused(r, sr, c, opt)
				if !sameBits(x, want.X) {
					t.Fatalf("%s seed %d trial %d: states differ (max %v)", a.Name(), seed, trial, algo.MaxStateDiff(x, want.X))
				}
				if !slices.Equal(parent, want.Parent) {
					t.Fatalf("%s seed %d trial %d: parents differ", a.Name(), seed, trial)
				}
				changed := slices.Sorted(slices.Values(got.Changed))
				if wantChanged := slices.Sorted(slices.Values(want.Changed)); !slices.Equal(changed, wantChanged) {
					t.Fatalf("%s seed %d trial %d: changed %v, want %v", a.Name(), seed, trial, changed, wantChanged)
				}
				if got.Activations != want.Activations || got.Rounds != want.Rounds {
					t.Fatalf("%s seed %d trial %d: %d acts/%d rounds, want %d/%d", a.Name(), seed, trial,
						got.Activations, got.Rounds, want.Activations, want.Rounds)
				}
			}
		}
	}
}

// TestRunnerNoSeeds pins that a run with nothing seeded changes nothing.
func TestRunnerNoSeeds(t *testing.T) {
	a := algo.NewSSSP(0)
	g := randomFrameGraph(4, 60)
	f := BuildFrame(g, a)
	x0, m0 := InitVectors(g, a)
	x := Run(f, a.Semiring(), x0, m0, Options{}).X
	before := append([]float64(nil), x...)
	r := NewRunner(a.Semiring())
	res := r.Run(f, x, nil, Options{})
	if len(res.Changed) != 0 || res.Rounds != 0 || res.Activations != 0 || !sameBits(x, before) {
		t.Fatalf("empty run: %+v", res)
	}
}

// TestRunnerTrackParentsNeedsVector pins that a Runner asked for parents
// without a vector to write them to panics instead of dropping them.
func TestRunnerTrackParentsNeedsVector(t *testing.T) {
	a := algo.NewSSSP(0)
	g := randomFrameGraph(4, 60)
	f := BuildFrame(g, a)
	x, m0 := InitVectors(g, a)
	r := NewRunner(a.Semiring())
	r.Seed(0, m0[0], NoParent)
	defer func() {
		if recover() == nil {
			t.Fatal("Run with TrackParents and a nil parent vector did not panic")
		}
	}()
	r.Run(f, x, nil, Options{TrackParents: true})
}

// TestSumRunIsWorklist pins the worklist on a dense sum start — m0 on every
// vertex, as RunBatch seeds it. The run stops with every pending delta at
// most tol, and a unit of undelivered delta is worth at most 1/(1-d) of
// state, so the states lie within n·tol/(1-d) of a reference run at
// tolerance 1e-13 (plus that reference's own, far smaller, bound).
func TestSumRunIsWorklist(t *testing.T) {
	const n, d, tol, refTol = 2000, 0.85, 1e-9, 1e-13
	a := algo.NewPageRank(d, tol)
	sr := a.Semiring()
	g := randomFrameGraph(9, n)
	f := BuildFrame(g, a)
	x0, m0 := InitVectors(g, a)
	ref := Run(f, sr, x0, m0, Options{Tolerance: refTol}).X

	base := Run(f, sr, x0, m0, Options{Tolerance: tol})
	if bound := n * (tol + refTol) / (1 - d); !algo.StatesClose(base.X, ref, bound) {
		t.Fatalf("dense start differs from the reference by %v, bound %v", algo.MaxStateDiff(base.X, ref), bound)
	}
	t.Logf("dense start: %d activations, %d generations", base.Activations, base.Rounds)
}

// minReference is Dijkstra's fixpoint over the frame's rows: every vertex
// starts from x0 ⊕ m0 and settles in order of value, so it is independent
// of the worklist's schedule.
func minReference(f *Frame, sr algo.Semiring, x0, m0 []float64) []float64 {
	n := f.N()
	x := make([]float64, n)
	for v := range x {
		x[v] = sr.Plus(x0[v], m0[v])
	}
	done := make([]bool, n)
	for {
		u := -1
		for v := range x {
			if !done[v] && x[v] != sr.Zero() && (u < 0 || x[v] < x[u]) {
				u = v
			}
		}
		if u < 0 {
			return x
		}
		done[u] = true
		for _, e := range f.Out[u] {
			x[e.To] = sr.Plus(x[e.To], sr.Times(x[u], e.W))
		}
	}
}

// checkMinRun checks a finished min run against the reference: the states
// are equal bit for bit, every recorded parent p of v has an edge p→v with
// x[v] == x[p] ⊗ w, a state without a parent is its vertex's initial
// message, and Changed lists exactly the vertices whose state moved from
// before.
func checkMinRun(t *testing.T, what string, f *Frame, sr algo.Semiring, m0, before, x, want []float64, parent []graph.VertexID, res Result) {
	t.Helper()
	if !sameBits(x, want) {
		t.Fatalf("%s: states differ from the reference (max %v)", what, algo.MaxStateDiff(x, want))
	}
	for v, p := range parent {
		if p == NoParent {
			if x[v] != sr.Zero() && x[v] != m0[v] {
				t.Fatalf("%s: state %v of %d has no parent", what, x[v], v)
			}
			continue
		}
		if !slices.ContainsFunc(f.Out[p], func(e WEdge) bool {
			return int(e.To) == v && sr.Times(x[p], e.W) == x[v]
		}) {
			t.Fatalf("%s: parent %d of %d sets no edge to its state %v", what, p, v, x[v])
		}
	}
	var moved []graph.VertexID
	for v := range x {
		if math.Float64bits(x[v]) != math.Float64bits(before[v]) {
			moved = append(moved, graph.VertexID(v))
		}
	}
	if changed := slices.Sorted(slices.Values(res.Changed)); !slices.Equal(changed, moved) {
		t.Fatalf("%s: changed %v, want %v", what, changed, moved)
	}
}

// TestMinRunIsWorklist pins the min worklist on random weighted frames
// under SSSP, BFS and CC. A batch start (the source's message, or every
// vertex's label for CC) and an incremental start — a random set of
// converged states reset to the semiring zero and re-reached either by
// activating their intact in-neighbours or by seeding them with offers
// from those, as the incremental engines do — must both reach Dijkstra's
// states exactly, record parents whose edge yields the state, and list
// exactly the changed vertices. A run cut by the round cap must leave the
// Runner as a fresh one.
func TestMinRunIsWorklist(t *testing.T) {
	const n = 150
	for _, a := range []algo.Algorithm{algo.NewSSSP(3), algo.NewBFS(3), algo.NewCC()} {
		sr := a.Semiring()
		rng := rand.New(rand.NewSource(7))
		r := NewRunner(sr)
		for trial := 0; trial < 12; trial++ {
			g := randomFrameGraph(rng.Int63(), n)
			for v := 0; v < n; v += 1 + rng.Intn(40) {
				g.DeleteVertex(graph.VertexID(v)) // split the frame now and then
			}
			f := BuildFrame(g, a)
			x0, m0 := InitVectors(g, a)
			want := minReference(f, sr, x0, m0)
			what := fmt.Sprintf("%s trial %d", a.Name(), trial)

			batch := Run(f, sr, x0, m0, Options{TrackParents: true})
			checkMinRun(t, what+" batch", f, sr, m0, x0, batch.X, want, batch.Parent, Result{Changed: batch.Changed})

			// Reset a random set, then re-reach it through r.
			x, parent := slices.Clone(batch.X), slices.Clone(batch.Parent)
			reset := make([]bool, n)
			for v := range reset {
				if rng.Intn(5) == 0 {
					reset[v], x[v], parent[v] = true, sr.Zero(), NoParent
				}
			}
			before := slices.Clone(x)
			viaSeeds := trial%2 == 1
			for u := range n {
				for _, e := range f.Out[u] {
					if reset[u] || !reset[e.To] || x[u] == sr.Zero() {
						continue
					}
					if viaSeeds {
						r.Seed(e.To, sr.Times(x[u], e.W), graph.VertexID(u))
						r.Activate(e.To)
					} else {
						r.Activate(graph.VertexID(u))
					}
				}
			}
			// Reset vertices that are their own roots take their initial
			// message back.
			for v := range n {
				if reset[v] && m0[v] != sr.Zero() {
					r.Seed(graph.VertexID(v), m0[v], NoParent)
					r.Activate(graph.VertexID(v))
				}
			}
			res := r.Run(f, x, parent, Options{})
			checkMinRun(t, fmt.Sprintf("%s reset (seeds %v)", what, viaSeeds), f, sr, m0, before, x, want, parent, res)

			// A run cut after one generation leaves r clean: the next run
			// matches a fresh Runner's bit for bit.
			c := runnerCase{f: f, x0: x0, m0: m0}
			runReused(r, sr, c, Options{maxRounds: 1})
			xr, pr, got := runReused(r, sr, c, Options{})
			xf, pf, fresh := runReused(NewRunner(sr), sr, c, Options{})
			if !sameBits(xr, xf) || !slices.Equal(pr, pf) || !slices.Equal(got.Changed, fresh.Changed) ||
				got.Activations != fresh.Activations || got.Rounds != fresh.Rounds {
				t.Fatalf("%s: run after a cut run differs from a fresh Runner's", what)
			}
			checkMinRun(t, what+" after cut", f, sr, m0, x0, xr, want, pr, got)
		}
	}
}

// maskedRows is a Rows view that reads a frame's rows and empties the
// masked ones, the shape of Layph's absorbing frames.
type maskedRows struct {
	f    *Frame
	mask []bool
}

func (m maskedRows) N() int { return m.f.N() }

func (m maskedRows) Row(v graph.VertexID) []WEdge {
	if m.mask[v] {
		return nil
	}
	return m.f.Out[v]
}

// TestRunnerOverRowsView pins that a Runner reads a frame only through
// Rows: a run over a view that empties chosen rows gives bit-identical
// states, parents, activations and changed set to a run over a Frame whose
// rows were emptied — for min runs with parents, and for sum runs
// from a sparse start (a few seeds on a converged state) and from a dense
// start (the batch start), over two generator seeds.
func TestRunnerOverRowsView(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name  string
		a     algo.Algorithm
		dense bool
	}{
		{"min", algo.NewSSSP(0), true},
		{"sum-worklist", algo.NewPageRank(0.85, 1e-9), false},
		{"sum-dense", algo.NewPageRank(0.85, 1e-9), true},
	} {
		sr := tc.a.Semiring()
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 10; trial++ {
				g := randomFrameGraph(rng.Int63(), n)
				f := BuildFrame(g, tc.a)
				view := maskedRows{f: f, mask: make([]bool, n)}
				cut := &Frame{Out: slices.Clone(f.Out)}
				for v := 1; v < n; v++ { // the SSSP source keeps its row
					if rng.Intn(4) == 0 {
						view.mask[v], cut.Out[v] = true, nil
					}
				}
				x0, m0 := InitVectors(g, tc.a)
				if !tc.dense {
					x0 = Run(f, sr, x0, m0, Options{Tolerance: tc.a.Tolerance()}).X
					clear(m0)
					for j := 0; j < 5; j++ {
						m0[rng.Intn(n)] = rng.Float64() - 0.5
					}
				}
				opt := Options{Tolerance: tc.a.Tolerance(), TrackParents: sr.Idempotent()}
				xw, pw, want := runReused(NewRunner(sr), sr, runnerCase{f: cut, x0: x0, m0: m0}, opt)
				x := slices.Clone(x0)
				var parent []graph.VertexID
				if sr.Idempotent() {
					parent = slices.Repeat([]graph.VertexID{NoParent}, n)
				}
				r := NewRunner(sr)
				for v, m := range m0 {
					if m != sr.Zero() {
						r.Seed(graph.VertexID(v), m, NoParent)
					}
				}
				got := r.Run(view, x, parent, opt)
				if !sameBits(x, xw) || !slices.Equal(parent, pw) {
					t.Fatalf("%s seed %d trial %d: states or parents differ", tc.name, seed, trial)
				}
				if got.Activations != want.Activations || got.Rounds != want.Rounds || !slices.Equal(got.Changed, want.Changed) {
					t.Fatalf("%s seed %d trial %d: %d acts/%d rounds/%d changed, want %d/%d/%d", tc.name, seed, trial,
						got.Activations, got.Rounds, len(got.Changed), want.Activations, want.Rounds, len(want.Changed))
				}
			}
		}
	}
}

// TestWorklistMaxRounds pins the round cap (Options.maxRounds) on the
// worklist: a damping-1 PHP cycle seeded at one vertex never converges, and
// each queue generation holds the one vertex the delta has reached. The run must stop after
// exactly maxRounds generations with the delta still in flight, and leave
// the Runner clean: its next run matches a fresh Runner's.
func TestWorklistMaxRounds(t *testing.T) {
	const n, maxRounds = 16, 50
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
	}
	a := algo.NewPHP(0, 1.0, 0)
	sr := a.Semiring()
	f := BuildFrame(g, a)
	r := NewRunner(sr)
	x := make([]float64, n)
	r.Seed(0, 1, NoParent)
	res := r.Run(f, x, nil, Options{maxRounds: maxRounds})
	if res.Rounds != maxRounds || res.Activations != maxRounds {
		t.Fatalf("cut run: %d rounds, %d activations; want %d of each", res.Rounds, res.Activations, maxRounds)
	}

	next := runnerCase{f: f, x0: make([]float64, n), m0: make([]float64, n)}
	next.m0[5] = 0.25
	opt := Options{maxRounds: 3}
	xr, _, got := runReused(r, sr, next, opt)
	xf, _, want := runReused(NewRunner(sr), sr, next, opt)
	if !sameBits(xr, xf) || !slices.Equal(got.Changed, want.Changed) ||
		got.Activations != want.Activations || got.Rounds != want.Rounds {
		t.Fatalf("reused runner after a cut run: x %v %+v, fresh runner: x %v %+v", xr, got, xf, want)
	}
}

// BenchmarkRunner measures the overhead case of an in-place run: a 70k
// vertex frame and one active vertex whose messages improve nothing. The
// reused Runner's cost is the vertex's row; the one-shot Run pays for the
// frame. Run with -benchmem to see B/op.
func BenchmarkRunner(b *testing.B) {
	const n = 70000
	a := algo.NewSSSP(0)
	sr := a.Semiring()
	g := randomFrameGraph(1, n)
	f := BuildFrame(g, a)
	x0, m0 := InitVectors(g, a)
	x := Run(f, sr, x0, m0, Options{}).X
	parent := make([]graph.VertexID, n)
	b.Run("reused", func(b *testing.B) {
		r := NewRunner(sr)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Activate(graph.VertexID(i % n))
			r.Run(f, x, parent, Options{})
		}
	})
	// The sum case: one seed on a converged PageRank state, a sparse start
	// the worklist runs. Its ring and queued flags are frame-sized and
	// reused, so a steady-state run allocates nothing.
	b.Run("pagerank-reused", func(b *testing.B) {
		a := algo.NewPageRank(0.85, 1e-6)
		sr := a.Semiring()
		f := BuildFrame(g, a)
		x0, m0 := InitVectors(g, a)
		x := Run(f, sr, x0, m0, Options{Tolerance: a.Tolerance()}).X
		r := NewRunner(sr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate the sign so the state does not drift.
			m := 0.01
			if i%2 == 1 {
				m = -m
			}
			r.Seed(graph.VertexID(i/2%n), m, NoParent)
			r.Run(f, x, nil, Options{Tolerance: a.Tolerance()})
		}
	})
	// The batch start: m0 on every vertex of the same frame under
	// PageRank, the dense start the worklist runs in RunBatch and in
	// Layph's initial run.
	b.Run("pagerank-batch", func(b *testing.B) {
		a := algo.NewPageRank(0.85, 1e-6)
		f := BuildFrame(g, a)
		x0, m0 := InitVectors(g, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Run(f, a.Semiring(), x0, m0, Options{Tolerance: a.Tolerance()})
		}
	})
	// The min batch start: the source's message alone on the same frame,
	// the start of RunBatch and of Layph's initial SSSP run.
	b.Run("sssp-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Run(f, sr, x0, m0, Options{TrackParents: true})
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		m := make([]float64, n)
		for i := range m {
			m[i] = sr.Zero()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A message equal to the state activates the vertex without
			// improving it, as Activate does.
			v := i % n
			m[v] = x[v]
			Run(f, sr, x, m, Options{TrackParents: true})
			m[v] = sr.Zero()
		}
	})
}
