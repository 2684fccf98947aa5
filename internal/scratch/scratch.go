// Package scratch holds the dense, reusable working structures the
// incremental engines share: an epoch-stamped vertex set and a CSR over a
// dependency forest. Both are sized to the flat ID space and recycled
// across updates, so a steady-state batch allocates in proportion to what
// it touches rather than to the graph.
package scratch

import (
	"layph/internal/engine"
	"layph/internal/graph"
)

// Set is an epoch-stamped dense vertex set. Membership tests and inserts
// are O(1) array probes, reset is O(1) (an epoch bump), and iteration over
// List is in insertion order — which, unlike Go map iteration, makes every
// pass over the set reproducible between runs. The stamp array grows on
// demand because the flat ID space can grow mid-update (new vertices,
// fresh proxies).
type Set struct {
	stamp []uint32
	epoch uint32
	List  []graph.VertexID
}

// Reset empties the set and ensures capacity for n vertices.
func (s *Set) Reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n+n/2)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // epoch counter wrapped: stamps are ambiguous, wipe them
		clear(s.stamp)
		s.epoch = 1
	}
	s.List = s.List[:0]
}

// Add inserts v, growing the stamp array if v is beyond it. Reports whether
// v was newly inserted.
func (s *Set) Add(v graph.VertexID) bool {
	if int(v) >= len(s.stamp) {
		grown := make([]uint32, int(v)+1+int(v)/2)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	s.List = append(s.List, v)
	return true
}

// Has reports whether v is in the set.
func (s *Set) Has(v graph.VertexID) bool {
	return int(v) < len(s.stamp) && s.stamp[v] == s.epoch
}

// Forest is a CSR over a dependency forest (children of v =
// buf[off[v]:off[v+1]]), rebuilt per update that resets.
type Forest struct {
	off []int32
	buf []graph.VertexID
}

// Build builds the CSR from a parent vector: two counting passes over
// parent, no per-parent slice allocations.
func (f *Forest) Build(parent []graph.VertexID) {
	n := len(parent)
	if cap(f.off) < n+1 {
		f.off = make([]int32, n+1+n/2)
	}
	off := f.off[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, p := range parent {
		if p != engine.NoParent {
			off[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	if cap(f.buf) < int(off[n]) {
		f.buf = make([]graph.VertexID, int(off[n])+int(off[n])/2)
	}
	buf := f.buf[:off[n]]
	// Fill with a moving cursor per parent, then shift the offsets back
	// down one slot: after the fill off[p] is the END of p's segment,
	// which is exactly the start of segment p+1.
	for v, p := range parent {
		if p != engine.NoParent {
			buf[off[p]] = graph.VertexID(v)
			off[p]++
		}
	}
	for i := n; i > 0; i-- {
		off[i] = off[i-1]
	}
	off[0] = 0
	f.off = off
	f.buf = buf
}

// Children returns v's dependency children from the last Build.
func (f *Forest) Children(v graph.VertexID) []graph.VertexID {
	return f.buf[f.off[v]:f.off[v+1]]
}
