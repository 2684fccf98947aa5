// Package delta models the input change streams (ΔG) of incremental graph
// processing: unit edge/vertex insertions and deletions, batches thereof, and
// seeded random batch generators matching the paper's workloads ("5,000
// random edge updates", "1,000 vertex updates: 500 added + 500 deleted").
package delta

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"layph/internal/graph"
)

// Kind discriminates the unit update types.
type Kind uint8

// Unit update kinds. Edge-weight changes are modelled, as in the paper, as a
// DelEdge followed by an AddEdge with the new weight.
const (
	AddEdge Kind = iota
	DelEdge
	AddVertex
	DelVertex
)

func (k Kind) String() string {
	switch k {
	case AddEdge:
		return "add-edge"
	case DelEdge:
		return "del-edge"
	case AddVertex:
		return "add-vertex"
	case DelVertex:
		return "del-vertex"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Update is one unit update. For edge updates U and V are the endpoints; for
// vertex updates U is the vertex (V unused). W is the weight of an added edge.
type Update struct {
	Kind Kind
	U, V graph.VertexID
	W    float64
}

func (u Update) String() string {
	switch u.Kind {
	case AddEdge:
		return fmt.Sprintf("+(%d,%d,%g)", u.U, u.V, u.W)
	case DelEdge:
		return fmt.Sprintf("-(%d,%d)", u.U, u.V)
	case AddVertex:
		return fmt.Sprintf("+v%d", u.U)
	case DelVertex:
		return fmt.Sprintf("-v%d", u.U)
	}
	return "?"
}

// Batch is an ordered sequence of unit updates applied atomically between two
// incremental runs.
type Batch []Update

// Applied captures the NET effect of a batch on a graph plus a chronological
// log, sufficient both for revision-message deduction by the engines (which
// must see net pre-batch → post-batch differences, not intermediate churn)
// and for undoing the batch exactly. Apply nets the batch from the events
// its own mutations report, stably sorted by key: the first event on a key
// holds the pre-batch state and the last one the post-batch state.
type Applied struct {
	// AddedEdges lists edges present after the batch that were absent (or
	// had a different weight) before it; for weight changes the matching
	// previous edge appears in RemovedEdges. Both edge lists are ordered by
	// (From, To) and both vertex lists ascending, so the same batch on the
	// same graph always yields the same slices.
	AddedEdges []graph.DeletedEdge
	// RemovedEdges lists edges present before the batch that are absent (or
	// reweighted) after it (weight = old weight).
	RemovedEdges []graph.DeletedEdge
	// AddedVertices and RemovedVertices list net vertex liveness transitions.
	AddedVertices   []graph.VertexID
	RemovedVertices []graph.VertexID

	log []logRec
}

type logOp uint8

const (
	opAddEdge   logOp = iota // inserted fresh edge
	opSetEdge                // overwrote existing edge weight
	opDelEdge                // removed edge
	opNewVertex              // appended fresh vertex
	opRevive                 // revived tombstoned vertex
	opDelVertex              // tombstoned vertex (incident edges logged separately)
)

type logRec struct {
	op    logOp
	u, v  graph.VertexID
	w     float64 // new weight for add/set
	prevW float64 // previous weight for set
	edges []graph.DeletedEdge
}

// Empty reports whether the batch changed nothing.
func (a *Applied) Empty() bool {
	return len(a.AddedEdges) == 0 && len(a.RemovedEdges) == 0 &&
		len(a.AddedVertices) == 0 && len(a.RemovedVertices) == 0
}

// edgeEvent is one write an edge mutation made to the pair key u<<32|v:
// the edge's state just before it and just after it.
type edgeEvent struct {
	key       uint64
	wasW, isW float64
	was, is   bool
}

// adds reports whether the edge is in the graph after e with a weight it
// did not have before; removes whether it was in the graph before e and is
// gone or reweighted after it.
func (e edgeEvent) adds() bool    { return e.is && (!e.was || e.wasW != e.isW) }
func (e edgeEvent) removes() bool { return e.was && (!e.is || e.wasW != e.isW) }

// vertexEvent is one liveness change of v; was is v's liveness before it.
type vertexEvent struct {
	v   graph.VertexID
	was bool
}

// Apply mutates g according to the batch and returns the effective NET
// changes. Updates that are no-ops on the current graph (deleting a missing
// edge, adding an existing edge with a bit-identical weight, deleting a dead
// vertex) are skipped silently — random streams legitimately contain such
// collisions, and a batch that adds then deletes the same edge nets out to
// nothing.
//
// Every mutation appends an event with the state it found and the state it
// left, taken from what the graph call returns, so the graph is never
// probed twice. A stable sort by key keeps each key's events in batch
// order: its first event's before-state is the pre-batch state and its
// last event's after-state the post-batch state.
func Apply(g *graph.Graph, b Batch) *Applied {
	a := &Applied{log: make([]logRec, 0, len(b))}
	ev := make([]edgeEvent, 0, len(b))
	var vev []vertexEvent
	for _, u := range b {
		switch u.Kind {
		case AddEdge:
			if !g.Alive(u.U) || !g.Alive(u.V) || u.U == u.V {
				continue
			}
			prev, replaced := g.AddEdge(u.U, u.V, u.W)
			// Only a re-add of the same bits is a no-op: 0 and -0 compare
			// equal, but Undo must restore the sign. Value plus sign bit is
			// the bits test for every non-NaN weight, and unlike
			// math.Float64bits it left the batch loop as fast as before.
			if replaced && prev == u.W && math.Signbit(prev) == math.Signbit(u.W) {
				continue
			}
			ev = append(ev, edgeEvent{key: edgeKey(u.U, u.V), wasW: prev, was: replaced, isW: u.W, is: true})
			if replaced {
				a.log = append(a.log, logRec{op: opSetEdge, u: u.U, v: u.V, w: u.W, prevW: prev})
			} else {
				a.log = append(a.log, logRec{op: opAddEdge, u: u.U, v: u.V, w: u.W})
			}
		case DelEdge:
			if w, ok := g.DeleteEdge(u.U, u.V); ok {
				ev = append(ev, edgeEvent{key: edgeKey(u.U, u.V), wasW: w, was: true})
				a.log = append(a.log, logRec{op: opDelEdge, u: u.U, v: u.V, w: w})
			}
		case AddVertex:
			if int(u.U) < g.Cap() {
				if g.Alive(u.U) {
					continue
				}
				vev = append(vev, vertexEvent{v: u.U})
				g.ReviveVertex(u.U)
				a.log = append(a.log, logRec{op: opRevive, u: u.U})
			} else {
				for int(u.U) >= g.Cap() {
					id := g.AddVertex()
					vev = append(vev, vertexEvent{v: id})
					a.log = append(a.log, logRec{op: opNewVertex, u: id})
				}
			}
		case DelVertex:
			if !g.Alive(u.U) {
				continue
			}
			vev = append(vev, vertexEvent{v: u.U, was: true})
			removed := g.DeleteVertex(u.U)
			for _, d := range removed {
				ev = append(ev, edgeEvent{key: edgeKey(d.From, d.To), wasW: d.W, was: true})
			}
			a.log = append(a.log, logRec{op: opDelVertex, u: u.U, edges: removed})
		}
	}
	if len(a.log) == 0 {
		a.log = nil // a batch that changed nothing keeps no log
	}

	// Net edge summaries in ascending key order, i.e. by (From, To), so
	// every consumer that folds the changes in list order sees one order.
	// Each key's run of events folds, in place, into one net event: the
	// first event's before-state and the last one's after-state.
	ev = sortByKey(ev)
	keys, nAdd, nRem := 0, 0, 0
	for i := 0; i < len(ev); keys++ {
		net := ev[i]
		for i++; i < len(ev) && ev[i].key == net.key; i++ {
		}
		net.isW, net.is = ev[i-1].isW, ev[i-1].is
		ev[keys] = net
		if net.adds() {
			nAdd++
		}
		if net.removes() {
			nRem++
		}
	}
	if nAdd > 0 {
		a.AddedEdges = make([]graph.DeletedEdge, 0, nAdd)
	}
	if nRem > 0 {
		a.RemovedEdges = make([]graph.DeletedEdge, 0, nRem)
	}
	for _, e := range ev[:keys] {
		u, v := graph.VertexID(e.key>>32), graph.VertexID(e.key)
		if e.removes() {
			a.RemovedEdges = append(a.RemovedEdges, graph.DeletedEdge{From: u, To: v, W: e.wasW})
		}
		if e.adds() {
			a.AddedEdges = append(a.AddedEdges, graph.DeletedEdge{From: u, To: v, W: e.isW})
		}
	}
	// Net vertex summaries, in ascending order.
	slices.SortStableFunc(vev, func(x, y vertexEvent) int { return cmp.Compare(x.v, y.v) })
	for i := 0; i < len(vev); {
		first := vev[i]
		for i++; i < len(vev) && vev[i].v == first.v; i++ {
		}
		switch is := g.Alive(first.v); {
		case !first.was && is:
			a.AddedVertices = append(a.AddedVertices, first.v)
		case first.was && !is:
			a.RemovedVertices = append(a.RemovedVertices, first.v)
		}
	}
	return a
}

func edgeKey(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// sortByKey sorts ev by key and keeps events on one key in their order: an
// LSD radix sort (stable by construction) with one counting pass per key
// byte that is not the same in every event. It returns the sorted events,
// in ev's backing array or in a scratch one.
func sortByKey(ev []edgeEvent) []edgeEvent {
	if len(ev) < 2 {
		return ev
	}
	var count [8][256]int32
	for _, e := range ev {
		for b := range count {
			count[b][byte(e.key>>(8*b))]++
		}
	}
	src, dst := ev, make([]edgeEvent, len(ev))
	for b := range count {
		c := &count[b]
		if c[byte(src[0].key>>(8*b))] == int32(len(src)) {
			continue // every key has this byte
		}
		var sum int32
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := byte(e.key >> (8 * b))
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Undo replays the batch log in reverse, restoring g to its exact pre-batch
// state (IDs included).
func Undo(g *graph.Graph, a *Applied) {
	for i := len(a.log) - 1; i >= 0; i-- {
		r := a.log[i]
		switch r.op {
		case opAddEdge:
			g.DeleteEdge(r.u, r.v)
		case opSetEdge:
			g.AddEdge(r.u, r.v, r.prevW)
		case opDelEdge:
			g.AddEdge(r.u, r.v, r.w)
		case opNewVertex, opRevive:
			g.DeleteVertex(r.u)
		case opDelVertex:
			g.ReviveVertex(r.u)
			for _, e := range r.edges {
				g.AddEdge(e.From, e.To, e.W)
			}
		}
	}
}

// Generator produces random update batches against a live graph, mirroring
// the paper's ΔG construction: half additions of fresh random edges, half
// deletions of existing edges (or, for vertex batches, half vertex adds and
// half vertex deletes).
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a seeded generator.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// EdgeBatch builds a batch with n/2 random edge insertions and n/2 deletions
// of edges sampled from g. Weights of inserted edges are uniform in [1,10) if
// weighted, else 1. The batch references g's current state but does not
// mutate it.
func (gen *Generator) EdgeBatch(g *graph.Graph, n int, weighted bool) Batch {
	b := make(Batch, 0, n)
	half := n / 2
	live := liveVertices(g)
	if len(live) < 2 {
		return nil
	}
	for i := 0; i < n-half; i++ {
		u := live[gen.rng.Intn(len(live))]
		v := live[gen.rng.Intn(len(live))]
		if u == v {
			v = live[(gen.rng.Intn(len(live))+1)%len(live)]
		}
		w := 1.0
		if weighted {
			w = 1 + 9*gen.rng.Float64()
		}
		b = append(b, Update{Kind: AddEdge, U: u, V: v, W: w})
	}
	// Sample existing edges for deletion via random source vertices with
	// degree-proportional retries; collisions with already-chosen deletions
	// are fine (Apply skips no-ops).
	for i := 0; i < half; i++ {
		for try := 0; try < 32; try++ {
			u := live[gen.rng.Intn(len(live))]
			outs := g.Out(u)
			if len(outs) == 0 {
				continue
			}
			e := outs[gen.rng.Intn(len(outs))]
			b = append(b, Update{Kind: DelEdge, U: u, V: e.To})
			break
		}
	}
	gen.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// VertexBatch builds a batch with adds fresh vertices (each wired with
// wiring random edges to existing vertices so they participate in
// computation) and dels deletions of random live vertices.
func (gen *Generator) VertexBatch(g *graph.Graph, adds, dels, wiring int, weighted bool) Batch {
	var b Batch
	live := liveVertices(g)
	if len(live) == 0 {
		return nil
	}
	next := graph.VertexID(g.Cap())
	for i := 0; i < adds; i++ {
		id := next
		next++
		b = append(b, Update{Kind: AddVertex, U: id})
		for k := 0; k < wiring; k++ {
			peer := live[gen.rng.Intn(len(live))]
			w := 1.0
			if weighted {
				w = 1 + 9*gen.rng.Float64()
			}
			if gen.rng.Intn(2) == 0 {
				b = append(b, Update{Kind: AddEdge, U: id, V: peer, W: w})
			} else {
				b = append(b, Update{Kind: AddEdge, U: peer, V: id, W: w})
			}
		}
	}
	for i := 0; i < dels; i++ {
		b = append(b, Update{Kind: DelVertex, U: live[gen.rng.Intn(len(live))]})
	}
	return b
}

// MigrationBatch builds a community-migration churn batch, the drift
// workload for re-layering: a cluster of size live vertices
// around a random pivot is moved into a different community
// neighborhood — ALL of each cluster vertex's existing out- and
// in-edges are deleted, and rewire out- plus rewire in-edges to the
// neighborhood of a random anchor vertex are added, so each mover
// detaches completely and knits densely into the anchor's community.
// Detaching completely matters: a mover that kept even part of its old
// neighborhood would leave a permanent trail of cross-community edges,
// degrading modularity in a way no re-layering could recover. Using the
// anchor's actual adjacency as the target (instead of a vertex-ID
// window) keeps the migration inside one real community regardless of
// ID layout, so sustained churn preserves the graph's community
// structure while steadily invalidating any frozen membership — exactly
// the layering-drift regime the relayer exists for.
func (gen *Generator) MigrationBatch(g *graph.Graph, size, rewire int, weighted bool) Batch {
	live := liveVertices(g)
	if len(live) < 4 || size <= 0 || rewire <= 0 {
		return nil
	}
	var b Batch
	pivot := gen.rng.Intn(len(live))

	// Target pool: a random anchor plus its distinct neighbors (both
	// directions), topped up with random live vertices when the anchor
	// is sparse.
	anchor := live[gen.rng.Intn(len(live))]
	seen := map[graph.VertexID]bool{anchor: true}
	pool := []graph.VertexID{anchor}
	addTo := func(v graph.VertexID) {
		if !seen[v] {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	for _, e := range g.Out(anchor) {
		addTo(e.To)
	}
	for _, e := range g.In(anchor) {
		// In-edge entries carry the source in .To (mirror convention).
		addTo(e.To)
	}
	for tries := 0; len(pool) < rewire+1 && tries < 4*rewire; tries++ {
		addTo(live[gen.rng.Intn(len(live))])
	}

	for i := 0; i < size; i++ {
		u := live[(pivot+i)%len(live)]
		for _, e := range g.Out(u) {
			b = append(b, Update{Kind: DelEdge, U: u, V: e.To})
		}
		for _, e := range g.In(u) {
			b = append(b, Update{Kind: DelEdge, U: e.To, V: u})
		}
		// Distinct targets per direction (duplicate adds would collapse
		// into weight updates and the mover's degree — and the graph's
		// edge count — would silently shrink under sustained churn).
		for dir := 0; dir < 2; dir++ {
			picked := 0
			for _, off := range gen.rng.Perm(len(pool)) {
				if picked == rewire {
					break
				}
				v := pool[off]
				if v == u {
					continue
				}
				picked++
				w := 1.0
				if weighted {
					w = 1 + 9*gen.rng.Float64()
				}
				if dir == 0 {
					b = append(b, Update{Kind: AddEdge, U: u, V: v, W: w})
				} else {
					b = append(b, Update{Kind: AddEdge, U: v, V: u, W: w})
				}
			}
		}
	}
	return b
}

// UnitSequence builds an ordered sequence of n unit edge updates for
// streaming: chunks are generated against an evolving private clone of g,
// so deletions always target edges that exist by the time they are
// reached in order. g itself is not mutated.
func (gen *Generator) UnitSequence(g *graph.Graph, n int, weighted bool) Batch {
	clone := g.Clone()
	var seq Batch
	for len(seq) < n {
		per := n - len(seq)
		if per > 1000 {
			per = 1000
		}
		b := gen.EdgeBatch(clone, per, weighted)
		if len(b) == 0 {
			break
		}
		Apply(clone, b)
		seq = append(seq, b...)
	}
	if len(seq) > n {
		seq = seq[:n]
	}
	return seq
}

func liveVertices(g *graph.Graph) []graph.VertexID {
	live := make([]graph.VertexID, 0, g.NumVertices())
	g.Vertices(func(v graph.VertexID) { live = append(live, v) })
	return live
}
