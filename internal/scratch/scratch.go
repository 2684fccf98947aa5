// Package scratch holds the dense, reusable working set the engines
// share: an epoch-stamped vertex set, grown on demand and recycled across
// updates, so a steady-state batch allocates in proportion to what it
// touches rather than to the graph. There is no dependency-forest index:
// the ⊥ walk (inc.Trimmer) finds a vertex's dependents on its out-row.
package scratch

import "layph/internal/graph"

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
