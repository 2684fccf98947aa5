package pool

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestAllTasksRun(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	g := p.Group()
	for i := 0; i < 100; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	if st := p.Stats(); st.Tasks != 100 {
		t.Fatalf("Stats.Tasks = %d, want 100", st.Tasks)
	}
}

func TestSizeOneIsSequential(t *testing.T) {
	p := New(1)
	if p.Size() != 1 {
		t.Fatalf("size %d", p.Size())
	}
	// With a size-1 pool every task runs inline in submission order, so a
	// non-atomic slice append is safe and must preserve order.
	var order []int
	g := p.Group()
	for i := 0; i < 50; i++ {
		g.Go(func() { order = append(order, i) })
	}
	g.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; size-1 pool not sequential", i, v)
		}
	}
	if st := p.Stats(); st.Inline != 50 {
		t.Fatalf("Stats.Inline = %d, want 50 (all inline)", st.Inline)
	}
}

func TestConcurrencyBound(t *testing.T) {
	const size = 3
	p := New(size)
	var cur, peak atomic.Int64
	g := p.Group()
	for i := 0; i < 64; i++ {
		g.Go(func() {
			c := cur.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
		})
	}
	g.Wait()
	if pk := peak.Load(); pk > size {
		t.Fatalf("observed %d concurrent tasks, bound is %d", pk, size)
	}
}

func TestNestedGroupsDoNotDeadlock(t *testing.T) {
	p := New(2)
	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		outer := p.Group()
		for i := 0; i < 8; i++ {
			outer.Go(func() {
				inner := p.Group()
				for j := 0; j < 8; j++ {
					inner.Go(func() { n.Add(1) })
				}
				inner.Wait()
			})
		}
		outer.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested groups deadlocked")
	}
	if n.Load() != 64 {
		t.Fatalf("ran %d inner tasks, want 64", n.Load())
	}
}

func TestUtilization(t *testing.T) {
	if u := Utilization(Stats{}, Stats{Busy: time.Second}, time.Second, 2); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := Utilization(Stats{}, Stats{Busy: 10 * time.Second}, time.Second, 2); u != 1 {
		t.Fatalf("utilization not clamped: %v", u)
	}
	if u := Utilization(Stats{}, Stats{}, 0, 2); u != 0 {
		t.Fatalf("zero wall: %v", u)
	}
}
