// Package pool provides the shared bounded worker pool behind Layph's
// parallelism, which lives in the lower layer: one pool per engine
// instance, sized by Config.Threads, shared by every parallel phase
// (subgraph-local upload fixpoints, shortcut deduction fan-outs,
// assignment replay). The
// lower-layer subgraphs touched by an update batch are independent by
// construction — disjoint member sets, disjoint state writes — so each
// subgraph-local refinement is an isolated task.
//
// A Pool of size k allows at most k tasks to execute concurrently: up to
// k-1 on pool-owned goroutines plus the submitting goroutine itself,
// which runs a task inline whenever the pool is saturated. Running in
// the caller when no slot is free makes a size-1 pool strictly
// sequential — tasks run inline in submission order, which is the
// determinism baseline the differential tests compare against — and
// keeps a saturated pool from blocking the submitter. Every Layph
// fan-out is single-level: no pool task submits tasks of its own.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a shared bounded concurrency limiter with execution counters.
// All methods are safe for concurrent use.
type Pool struct {
	size int
	sem  chan struct{}

	tasks  atomic.Int64
	inline atomic.Int64
	busyNS atomic.Int64
}

// New returns a pool of the given size (0 or negative = GOMAXPROCS).
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: size, sem: make(chan struct{}, size-1)}
}

// Size returns the pool's concurrency bound.
func (p *Pool) Size() int { return p.size }

// Stats is a monotone snapshot of pool counters; differences between two
// snapshots describe the work executed in between.
type Stats struct {
	// Tasks counts executed tasks (pool goroutines and inline runs).
	Tasks int64
	// Inline is the subset of Tasks that ran in the submitting goroutine
	// because the pool was saturated.
	Inline int64
	// Busy is the cumulative task execution time across all workers. Each
	// task's span covers its whole body, so it is exact as long as no task
	// submits to a nested Group and blocks in Wait (its children's time
	// would count twice). No Layph code path nests pool tasks; a nested
	// Group stays deadlock-free, it only blurs this accounting.
	Busy time.Duration
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Tasks:  p.tasks.Load(),
		Inline: p.inline.Load(),
		Busy:   time.Duration(p.busyNS.Load()),
	}
}

// Utilization reports the fraction of pool capacity kept busy between
// two snapshots taken wall apart: busy-time delta over wall * size,
// clamped to [0, 1].
func Utilization(before, after Stats, wall time.Duration, size int) float64 {
	if wall <= 0 || size <= 0 {
		return 0
	}
	u := float64(after.Busy-before.Busy) / (float64(wall) * float64(size))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func (p *Pool) run(fn func()) {
	start := time.Now()
	fn()
	p.busyNS.Add(int64(time.Since(start)))
	p.tasks.Add(1)
}

// Group is a fork-join scope over the pool: Go submits tasks, Wait
// blocks until every submitted task has finished. A Group must not be
// reused after Wait returns while Go calls are still possible from other
// goroutines; the intended pattern is submit-all-then-wait from one
// goroutine (tasks themselves may open nested Groups).
type Group struct {
	p  *Pool
	wg sync.WaitGroup
}

// Group returns a new fork-join scope.
func (p *Pool) Group() *Group { return &Group{p: p} }

// Go runs fn on a pool worker when a slot is free, otherwise inline in
// the calling goroutine (bounding total concurrency at the pool size and
// making saturated and size-1 pools sequential).
func (g *Group) Go(fn func()) {
	select {
	case g.p.sem <- struct{}{}:
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer func() { <-g.p.sem }()
			g.p.run(fn)
		}()
	default:
		g.p.inline.Add(1)
		g.p.run(fn)
	}
}

// Wait blocks until all tasks submitted via Go have completed.
func (g *Group) Wait() { g.wg.Wait() }
