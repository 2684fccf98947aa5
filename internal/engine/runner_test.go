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
