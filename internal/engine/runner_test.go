package engine

import (
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
		x0 = Run(f, sr, x0, m0, Options{Workers: 1, Tolerance: a.Tolerance()}).X
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
// Workers 1, 2 and 8.
func TestRunnerReuseMatchesRun(t *testing.T) {
	algos := []algo.Algorithm{algo.NewSSSP(0), algo.NewPageRank(0.85, 1e-9)}
	for _, a := range algos {
		sr := a.Semiring()
		for _, w := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(int64(w)))
			r := NewRunner(sr)
			for trial := 0; trial < 30; trial++ {
				n := []int{40, 300, 90, 700, 15}[trial%5]
				c := randomRunnerCase(rng, a, n)
				opt := Options{Workers: w, Tolerance: a.Tolerance(), TrackParents: true}
				if trial%7 == 6 {
					opt.MaxRounds = 2 // a run cut with messages in flight
				}
				want := Run(c.f, sr, c.x0, c.m0, opt)
				if c.active != nil {
					x, parent, res := runReused(NewRunner(sr), sr, c, opt)
					res.X, res.Parent = x, parent
					want = &res
				}
				x, parent, got := runReused(r, sr, c, opt)
				if !sameBits(x, want.X) {
					t.Fatalf("%s w=%d trial %d: states differ (max %v)", a.Name(), w, trial, algo.MaxStateDiff(x, want.X))
				}
				if !slices.Equal(parent, want.Parent) {
					t.Fatalf("%s w=%d trial %d: parents differ", a.Name(), w, trial)
				}
				changed := slices.Sorted(slices.Values(got.Changed))
				if wantChanged := slices.Sorted(slices.Values(want.Changed)); !slices.Equal(changed, wantChanged) {
					t.Fatalf("%s w=%d trial %d: changed %v, want %v", a.Name(), w, trial, changed, wantChanged)
				}
				if got.Activations != want.Activations || got.Rounds != want.Rounds {
					t.Fatalf("%s w=%d trial %d: %d acts/%d rounds, want %d/%d", a.Name(), w, trial,
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
	res := r.Run(f, x, nil, Options{Workers: 2})
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

// TestSumRunIsWorklist pins the one sum schedule on a dense start — m0 on
// every vertex, as RunBatch seeds it. The run is the sequential worklist
// whatever Workers says, so Workers 1, 2 and 4 give bit-identical states,
// activations and generations. Each run stops with every pending delta at
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
	ref := Run(f, sr, x0, m0, Options{Workers: 1, Tolerance: refTol}).X

	base := Run(f, sr, x0, m0, Options{Workers: 1, Tolerance: tol})
	for _, w := range []int{2, 4} {
		res := Run(f, sr, x0, m0, Options{Workers: w, Tolerance: tol})
		if !sameBits(res.X, base.X) || res.Activations != base.Activations || res.Rounds != base.Rounds {
			t.Fatalf("Workers %d: %d acts/%d generations, max state diff %v; Workers 1: %d/%d",
				w, res.Activations, res.Rounds, algo.MaxStateDiff(res.X, base.X), base.Activations, base.Rounds)
		}
	}
	if bound := n * (tol + refTol) / (1 - d); !algo.StatesClose(base.X, ref, bound) {
		t.Fatalf("dense start differs from the reference by %v, bound %v", algo.MaxStateDiff(base.X, ref), bound)
	}
	t.Logf("dense start: %d activations, %d generations", base.Activations, base.Rounds)
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
// rows were emptied — for min runs with parents (rounds), and for sum runs
// (the worklist) from a sparse start (a few seeds on a converged state) and
// from a dense start (the batch start), on Workers 1 and 2.
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
		for _, w := range []int{1, 2} {
			rng := rand.New(rand.NewSource(int64(w)))
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
					x0 = Run(f, sr, x0, m0, Options{Workers: 1, Tolerance: tc.a.Tolerance()}).X
					clear(m0)
					for j := 0; j < 5; j++ {
						m0[rng.Intn(n)] = rng.Float64() - 0.5
					}
				}
				opt := Options{Workers: w, Tolerance: tc.a.Tolerance(), TrackParents: sr.Idempotent()}
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
					t.Fatalf("%s w=%d trial %d: states or parents differ", tc.name, w, trial)
				}
				if got.Activations != want.Activations || got.Rounds != want.Rounds || !slices.Equal(got.Changed, want.Changed) {
					t.Fatalf("%s w=%d trial %d: %d acts/%d rounds/%d changed, want %d/%d/%d", tc.name, w, trial,
						got.Activations, got.Rounds, len(got.Changed), want.Activations, want.Rounds, len(want.Changed))
				}
			}
		}
	}
}

// TestWorklistMaxRounds pins MaxRounds on the worklist: a damping-1 PHP
// cycle seeded at one vertex never converges, and each queue generation
// holds the one vertex the delta has reached. The run must stop after
// exactly MaxRounds generations with the delta still in flight, and leave
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
	res := r.Run(f, x, nil, Options{MaxRounds: maxRounds})
	if res.Rounds != maxRounds || res.Activations != maxRounds {
		t.Fatalf("cut run: %d rounds, %d activations; want %d of each", res.Rounds, res.Activations, maxRounds)
	}

	next := runnerCase{f: f, x0: make([]float64, n), m0: make([]float64, n)}
	next.m0[5] = 0.25
	opt := Options{MaxRounds: 3}
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
			r.Run(f, x, parent, Options{Workers: 1})
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
			Run(f, sr, x, m, Options{Workers: 1, TrackParents: true})
			m[v] = sr.Zero()
		}
	})
}
