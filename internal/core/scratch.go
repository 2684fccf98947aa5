package core

import (
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/scratch"
)

// updScratch holds buffers reused across Update calls so a steady-state
// batch allocates no per-vertex maps: the former map-based working sets are
// epoch-stamped dense sets, and the O(n) vectors of the online phases are
// recycled. Update processes one batch at a time and every phase joins its
// pool tasks before the next starts; within a fan-out the buffers are
// either read-only (snapshots) or written at disjoint member indices, so
// plain reuse is race-free.
type updScratch struct {
	touched    scratch.Set
	dirtyRoles scratch.Set
	upDirty    scratch.Set
	oldRoles   []Role // parallel to the role-candidate prefix of dirtyRoles

	// oldSeen guards first-touch snapshots of pre-batch out-lists; oldRows
	// carries the rows (parallel to oldSeen.List). Both are exposed via
	// layeredDiff and only valid for the Update call that filled them.
	oldSeen scratch.Set
	oldRows [][]engine.WEdge

	// hostProxies maps a host to its live entry proxies; rebuilt each
	// update but reused so the buckets stay warm.
	hostProxies map[graph.VertexID][]graph.VertexID

	// updateMin working sets.
	repair    scratch.Set
	inActive  scratch.Set
	changedUp scratch.Set
	offerSet  scratch.Set

	// O(n) vectors. Callers re-zero (or re-fill) the prefix they use.
	pending   []float64
	fromLocal []float64
	xPre      []float64
	xSnap     []float64
	m0        []float64
	offerVal  []float64
	tagged    []bool

	// Dependency-forest CSR for ⊥-cancellation, rebuilt per update that
	// resets.
	forest scratch.Forest
}

// floatBuf returns a zeroed n-sized view of one of the reusable vectors.
func floatBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// filledBuf is floatBuf with a custom fill value (e.g. the semiring zero).
func filledBuf(buf *[]float64, n int, fill float64) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = fill
	}
	return b
}

// copyBuf returns a view of the buffer holding a copy of src.
func copyBuf(buf *[]float64, src []float64) []float64 {
	if cap(*buf) < len(src) {
		*buf = make([]float64, len(src)+len(src)/2)
	}
	b := (*buf)[:len(src)]
	copy(b, src)
	return b
}

func boolBuf(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}
