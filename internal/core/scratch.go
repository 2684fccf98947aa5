package core

import (
	"sync"

	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/scratch"
)

// updScratch holds buffers reused across Update calls so a steady-state
// batch allocates no per-vertex maps: the working sets are epoch-stamped
// dense sets, and the flat-sized vectors are recycled — and, on the min
// path, neither filled nor copied: every slot read was written in the same
// update. Update processes one batch at a time and every phase joins its
// pool tasks before the next starts; within a fan-out the buffers are
// either read-only or written at disjoint member indices, so plain reuse
// is race-free.
type updScratch struct {
	// touched and dirty hold the flat rows to refresh and the roles to
	// recompute in the current round of settle.
	touched scratch.Set
	dirty   scratch.Set
	// roleSeen lists every vertex whose role was recomputed in this update,
	// whose skeleton row settle refreshes; oldRole[v] holds its
	// pre-update role while roleSeen.Has(v).
	roleSeen scratch.Set
	oldRole  []Role

	// oldSeen guards first-touch snapshots of pre-batch out-lists; oldRows
	// carries the rows (parallel to oldSeen.List). Both are exposed via
	// layeredDiff and only valid for the Update call that filled them.
	oldSeen scratch.Set
	oldRows [][]engine.WEdge

	// Subgraph-ID sets of settle: structural holds the subgraphs
	// rebuilt or dissolved, edited those whose frames were edited in place.
	structural scratch.Set
	edited     scratch.Set
	// cands collects the current round's frame-edit candidates.
	cands []graph.VertexID

	// evaluateCommunity's working set: the community's members and the
	// external endpoints of their cross edges, sources and targets.
	members        scratch.Set
	extSrc, extDst []graph.VertexID

	// rows diffs out-rows for the flat refresh; rowBuf is the flat
	// refresh's and editFrame's row buffer. Skeleton rows are refreshed in
	// pool tasks, on taskScratch.row.
	rows   rowDiff
	rowBuf []engine.WEdge

	// updateMin working sets (subgraph-ID sets for activeSubs, resetSubs
	// and trigSubs).
	changedUp  scratch.Set
	offerSet   scratch.Set
	activeSubs scratch.Set
	resetSubs  scratch.Set
	trigSubs   scratch.Set

	// Sum-scheme vectors: pending and fromLocal stay zero outside the
	// slots sumSeeds lists, which updateSum clears; xPre is re-copied per
	// update.
	pending   []float64
	fromLocal []float64
	sumSeeds  scratch.Set
	xPre      []float64
	// offerVal and offerFrom hold the folded direct candidate of each
	// offerSet member and its source; only members' slots are read.
	offerVal  []float64
	offerFrom []graph.VertexID

	// trim is the ⊥ cancellation over the flat dependency forest, walked
	// over the flat rows; roots collects its roots.
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

// exactRow returns a copy of row whose capacity is its length, or nil for an
// empty row.
func exactRow(row []engine.WEdge) []engine.WEdge {
	if len(row) == 0 {
		return nil
	}
	return append(make([]engine.WEdge, 0, len(row)), row...)
}

// packedRow returns the row appended to buf from lo on, capped at its
// length so that an append to it reallocates rather than clobber the next
// row, or nil for an empty row.
func packedRow(buf []engine.WEdge, lo int) []engine.WEdge {
	if hi := len(buf); hi > lo {
		return buf[lo:hi:hi]
	}
	return nil
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
// it: callers write a slot before they read it, or keep the vector zero
// by clearing what they write (a grown vector starts zeroed).
func rawBuf[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n+n/2)
	}
	return (*buf)[:n]
}

// taskScratch is one pool task's working set for the compact-frame runs —
// upload fixpoints, shortcut deduction and min-scheme entry revisions — and
// for the skeleton-row refreshes: a runner, compact state and parent
// vectors grown to the largest frame it has served, the flat sources of an
// upload's seeds, and the ⊥ walk of an entry revision. A shortcut task
// (settle's fan-out, maintainShortcuts) collects in moved the entries of
// its current subgraph whose rows a revision can have changed and
// refreshes them on row; the chunked refresh of the role-recomputed
// vertices after the fan-out (refreshUpRows) uses row as well.
type taskScratch struct {
	run   *engine.Runner
	x     []float64
	par   []graph.VertexID
	ext   []graph.VertexID
	trim  inc.Trimmer
	roots []graph.VertexID
	moved []graph.VertexID
	row   []engine.WEdge
}

// taskPool is a free list of task working sets. A task takes one for the
// duration of a run and returns it, so memory is bounded by the worker
// count times the largest frame, not by the number of subgraphs.
type taskPool struct {
	mu   sync.Mutex
	free []*taskScratch
}

// getTask takes a working set from the free list (or makes one).
func (l *Layph) getTask() *taskScratch {
	tp := &l.tasks
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if n := len(tp.free); n > 0 {
		ts := tp.free[n-1]
		tp.free = tp.free[:n-1]
		return ts
	}
	return &taskScratch{run: engine.NewRunner(l.sr)}
}

// putTask returns a working set to the free list.
func (l *Layph) putTask(ts *taskScratch) {
	tp := &l.tasks
	tp.mu.Lock()
	tp.free = append(tp.free, ts)
	tp.mu.Unlock()
}
