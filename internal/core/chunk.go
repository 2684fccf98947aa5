package core

// Chunked task fusion: the lower-layer fan-outs (shortcut deduction,
// upload fixpoints, assignment replay) used to dispatch one pool task per
// touched subgraph. Real partitions produce dozens of subgraphs whose
// individual fixpoints are microseconds of work, so task scheduling
// overhead dominated and the parallel lower layer lost to sequential
// execution. Fusing the ID-sorted subgraphs into a handful of
// edge-weight-balanced chunks gives every worker a task fat enough to
// amortize its dispatch.

// chunksPerWorker is the number of chunks per pool worker the fan-outs
// target: each chunk carries roughly a quarter of the touched edges per
// thread.
const chunksPerWorker = 4

// subWeight estimates the fixpoint cost of one subgraph task: internal
// edges plus members when a local frame exists, member count otherwise
// (rebuild tasks construct the frame inside the task, so only a member
// count is available up front).
func (l *Layph) subWeight(s *Subgraph) int {
	if s.Local != nil {
		if w := s.Local.edges + len(s.Local.ids); w > 0 {
			return w
		}
	}
	if n := len(s.Members); n > 0 {
		return n
	}
	if n := len(l.commVerts[s.ID]); n > 0 {
		return n
	}
	return 1
}

// subgraphChunks packs ID-sorted subgraphs into contiguous chunks weighted
// by subWeight, targeting chunksPerWorker chunks per pool worker. Chunk
// boundaries depend only on the sorted input and the worker count — not on
// timing — so for a fixed Threads setting the grouping, and therefore the
// fan-out and merge order, is deterministic.
func (l *Layph) subgraphChunks(subs []*Subgraph) [][]*Subgraph {
	if len(subs) == 0 {
		return nil
	}
	workers := l.pool.Size()
	if len(subs) == 1 || workers <= 1 {
		return [][]*Subgraph{subs}
	}
	maxChunks := workers * chunksPerWorker
	if maxChunks > len(subs) {
		maxChunks = len(subs)
	}
	total := 0
	for _, s := range subs {
		total += l.subWeight(s)
	}
	target := (total + maxChunks - 1) / maxChunks
	if target < 1 {
		target = 1
	}
	out := make([][]*Subgraph, 0, maxChunks)
	start, acc := 0, 0
	for i, s := range subs {
		acc += l.subWeight(s)
		if acc >= target {
			out = append(out, subs[start:i+1:i+1])
			start, acc = i+1, 0
		}
	}
	if start < len(subs) {
		out = append(out, subs[start:])
	}
	return out
}

// eachChunk runs task on every chunk of subs (subgraphChunks), one pool task
// per chunk, and returns the results in chunk order.
func eachChunk[R any](l *Layph, subs []*Subgraph, task func([]*Subgraph) R) []R {
	chunks := l.subgraphChunks(subs)
	results := make([]R, len(chunks))
	if len(chunks) == 0 {
		return results
	}
	grp := l.pool.Group()
	for i, ch := range chunks {
		grp.Go(func() { results[i] = task(ch) })
	}
	grp.Wait()
	return results
}
