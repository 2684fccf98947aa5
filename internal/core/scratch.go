package core

import (
	"layph/internal/algo"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
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
	// touched and dirty hold the flat rows to refresh and the roles to
	// recompute in the current round of layeredUpdate.
	touched scratch.Set
	dirty   scratch.Set
	upDirty scratch.Set
	// roleSeen lists every vertex whose role was recomputed in this update;
	// oldRole[v] holds its pre-update role while roleSeen.Has(v).
	roleSeen scratch.Set
	oldRole  []Role

	// oldSeen guards first-touch snapshots of pre-batch out-lists; oldRows
	// carries the rows (parallel to oldSeen.List). Both are exposed via
	// layeredDiff and only valid for the Update call that filled them.
	oldSeen scratch.Set
	oldRows [][]engine.WEdge

	// Subgraph-ID sets of layeredUpdate: structural holds the subgraphs
	// rebuilt or dissolved, edited those whose frames were edited in place.
	structural scratch.Set
	edited     scratch.Set
	// cands collects the current round's frame-edit candidates.
	cands []graph.VertexID

	// rows diffs out-rows for the flat and skeleton refreshes; rowBuf and
	// upBuf are editFrame's and refreshUpVertex's row buffers.
	rows   rowDiff
	rowBuf []engine.WEdge
	upBuf  []engine.WEdge

	// updateMin working sets (subgraph-ID sets for activeSubs/resetSubs).
	inActive   scratch.Set
	changedUp  scratch.Set
	offerSet   scratch.Set
	activeSubs scratch.Set
	resetSubs  scratch.Set

	// O(n) vectors. Callers re-zero (or re-fill) the prefix they use.
	pending   []float64
	fromLocal []float64
	xPre      []float64
	xSnap     []float64
	m0        []float64
	offerVal  []float64
	// offerFrom and m0From hold the source of the message in offerVal and
	// m0; only the slots seeded in the current update are ever read.
	offerFrom []graph.VertexID
	m0From    []graph.VertexID

	// trim is the ⊥ cancellation over the flat dependency forest; roots
	// collects its roots.
	trim  inc.Trimmer
	roots []graph.VertexID

	// The skeleton run's changed vertices (lupRun), their depth in its
	// parent forest (valid at lupRun members), and those whose value came
	// through a shortcut (viaShortcut).
	lupRun      scratch.Set
	viaShortcut scratch.Set
	depth       []int32
}

// rowDiff diffs two out-rows through an epoch-stamped index of the old
// row's targets instead of a per-call map. The returned slices are reused
// by the next call.
type rowDiff struct {
	old, kept      scratch.Set
	w              []float64
	added, removed []engine.WEdge
}

// diff returns the edges of fresh that are not in old with the same weight,
// and the edges of old (with their old weights) that are not in fresh with
// the same weight: a reweighted edge appears in both.
func (rd *rowDiff) diff(old, fresh []engine.WEdge) (added, removed []engine.WEdge) {
	if sameRow(old, fresh) {
		return nil, nil
	}
	rd.added, rd.removed = rd.added[:0], rd.removed[:0]
	rd.old.Reset(0)
	rd.kept.Reset(0)
	for _, e := range old {
		rd.old.Add(e.To)
		if int(e.To) >= len(rd.w) {
			rd.w = append(rd.w, make([]float64, int(e.To)+1-len(rd.w)+len(rd.w)/2)...)
		}
		rd.w[e.To] = e.W
	}
	for _, e := range fresh {
		if rd.old.Has(e.To) {
			rd.kept.Add(e.To)
			if rd.w[e.To] == e.W {
				continue
			}
			rd.removed = append(rd.removed, engine.WEdge{To: e.To, W: rd.w[e.To]})
		}
		rd.added = append(rd.added, e)
	}
	for _, e := range old {
		if !rd.kept.Has(e.To) {
			rd.removed = append(rd.removed, e)
		}
	}
	return rd.added, rd.removed
}

// sameRow reports whether two rows hold the same edges in the same order.
func sameRow(a, b []engine.WEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// rawBuf returns an n-sized view of a reusable vector without clearing
// it: callers write a slot before they read it.
func rawBuf[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n+n/2)
	}
	return (*buf)[:n]
}

// fold folds message m, sent by src, into slot i of a seed vector and keeps
// the source of the best message beside it: a value the seed sets takes
// that source as its dependency parent.
func fold(sr algo.Semiring, m0 []float64, from []graph.VertexID, i graph.VertexID, m float64, src graph.VertexID) {
	if p := sr.Plus(m0[i], m); p != m0[i] {
		m0[i], from[i] = p, src
	}
}
