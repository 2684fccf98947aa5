// Package shard implements community-aware multi-shard execution: the
// graph is partitioned into K balanced shards along Layph's community
// structure, one independent incremental engine runs per shard in its own
// goroutine, and cross-shard edges are routed through boundary/mirror
// vertices whose states are exchanged at skeleton level in
// iterate-until-global-fixpoint rounds.
//
// # Architecture
//
// Every shard graph spans the full global id space (vertex liveness is
// broadcast so capacities stay aligned) but stores exactly the in-edges
// of the vertices it owns. A cross-shard edge u→v therefore lives in
// owner(v)'s shard with u as a MIRROR: a pinned vertex whose state is the
// value owner(u) last published. Because a shard sees every in-edge of
// its owned vertices, its local fixpoint is an exact block relaxation of
// the global equations over its block, with the mirrors as boundary
// conditions — so iterating "run all shards, exchange changed boundary
// values, repeat" converges to the same fixpoint as a single engine
// (exactly for min-semiring workloads, within the algorithm's tolerance
// for sum-semiring ones).
//
// # Determinism
//
// Shard engines run concurrently but independently; their results meet
// only at the merge barrier, which collects boundary changes in shard
// order and sorted vertex order. With the per-shard worker count fixed,
// the same input stream therefore reproduces the same states — the same
// contract as layph.Config.Threads.
//
// # Deletions under the min scheme
//
// A deleted dependency edge must invalidate its downstream dependency
// subtree even where that subtree crosses shards, and recomputation must
// not resurrect values through stale mirror pins that were themselves
// derived from the invalidated region (the classic ghost-cycle problem of
// distributed KickStarter). The router therefore runs a tag-closure phase
// before round 0: local invalidation seeds are cascaded through every
// shard's dependency forest, crossing shards at mirrored boundary
// vertices, until closed; tagged mirrors get their pins zeroed for the
// recompute and owners republish their post-recompute values
// unconditionally.
package shard

import (
	"fmt"
	"sync"
	"time"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Options tunes a sharded execution group.
type Options struct {
	// Shards is K, the number of partitioned engines (0 or 1 = one shard,
	// which is the plain single-engine path plus the routing layer).
	Shards int
	// Threads is the worker count of EACH shard engine (0 = GOMAXPROCS).
	// Shards themselves always run in their own goroutines.
	Threads int
	// Community tunes the Louvain detection used to pack shards.
	Community community.Config
}

// maxRounds caps the boundary-exchange rounds per batch. Exceeding it
// panics: it means the exchange failed to reach a global fixpoint, which
// would otherwise serve silently wrong states.
const maxRounds = 1000

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// Info is a point-in-time summary of one shard, exposed via /metrics.
type Info struct {
	Shard         int   `json:"shard"`
	OwnedVertices int   `json:"owned_vertices"`
	Edges         int   `json:"edges"`
	Mirrors       int   `json:"mirrors"`
	Activations   int64 `json:"activations"`
	Rounds        int   `json:"rounds"`
}

// Group is a set of partitioned engines behind the inc.System interface:
// the stream applies batches to the global graph as usual and calls
// Update, which routes each batch's slice to its shard, drives the
// exchange rounds to the global fixpoint, and maintains the merged state
// vector that States and snapshots serve.
type Group struct {
	global  *graph.Graph
	base    algo.Algorithm
	sr      algo.Semiring
	zero    float64
	opt     Options
	k       int
	workers int
	idem    bool

	owner     []int32
	engines   []*unit
	mirror    [][]bool  // [shard][vertex]: shard holds out-edges of a vertex it doesn't own
	published []float64 // last boundary value broadcast per vertex
	merged    []float64 // the States() vector, assembled at each merge barrier

	// InitialStats records the cost of construction including the initial
	// cross-shard exchange.
	InitialStats inc.Stats

	mu    sync.Mutex
	infos []Info
}

// New partitions g into opt.Shards community-aware shards, builds one
// engine per shard, and exchanges boundary values to the initial global
// fixpoint. Like every engine constructor, it runs the initial batch
// computation; mutate g only via delta.Apply + Update afterwards.
func New(g *graph.Graph, base algo.Algorithm, opt Options) *Group {
	start := time.Now()
	k := opt.shards()
	gr := &Group{
		global: g, base: base, sr: base.Semiring(), opt: opt, k: k,
		workers: opt.Threads, idem: base.Semiring().Idempotent(),
	}
	gr.zero = gr.sr.Zero()
	gr.owner = buildOwners(g, k, opt.Community)

	cap := g.Cap()
	shardGraphs := make([]*graph.Graph, k)
	for s := 0; s < k; s++ {
		gs := graph.New(cap)
		for v := 0; v < cap; v++ {
			if !g.Alive(graph.VertexID(v)) {
				gs.DeleteVertex(graph.VertexID(v))
			}
		}
		shardGraphs[s] = gs
	}
	gr.mirror = make([][]bool, k)
	for s := range gr.mirror {
		gr.mirror[s] = make([]bool, cap)
	}
	g.Edges(func(u, v graph.VertexID, w float64) {
		s := gr.owner[v]
		shardGraphs[s].AddEdge(u, v, w)
		if gr.owner[u] != s {
			gr.mirror[s][u] = true
		}
	})

	gr.engines = make([]*unit, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			gr.engines[s] = newUnit(int32(s), gr, shardGraphs[s])
		}(s)
	}
	wg.Wait()

	gr.published = make([]float64, cap)
	gr.merged = make([]float64, cap)
	for i := range gr.published {
		gr.published[i] = gr.zero
	}

	// Initial exchange: publish every shard's local fixpoint boundary
	// values and iterate pin rounds until nothing changes.
	cur := make([][]pinUpdate, k)
	var boundary int64
	for s := 0; s < k; s++ {
		for v := 0; v < cap; v++ {
			vid := graph.VertexID(v)
			if gr.owner[v] != int32(s) {
				continue
			}
			nx := gr.engines[s].k.States()[v]
			if !gr.significant(nx, gr.published[v]) {
				continue
			}
			gr.published[v] = nx
			boundary += gr.fanOut(vid, nx, cur)
		}
	}
	rounds, pins, _ := gr.exchange(nil, nil, cur, nil)
	gr.assembleMerged()
	gr.refreshInfos()

	var initAct int64
	var initRounds int
	for _, u := range gr.engines {
		initAct += u.activations
		initRounds += u.rounds
	}
	gr.InitialStats = inc.Stats{
		Activations:  initAct,
		Rounds:       initRounds,
		Duration:     time.Since(start),
		ShardRounds:  int64(rounds),
		BoundaryPins: boundary + pins,
	}
	return gr
}

// Name identifies the engine.
func (gr *Group) Name() string { return "sharded" }

// NumShards returns K.
func (gr *Group) NumShards() int { return gr.k }

// Owner returns the shard owning v, or -1 if v has never been alive.
func (gr *Group) Owner(v graph.VertexID) int {
	if int(v) >= len(gr.owner) {
		return -1
	}
	return int(gr.owner[v])
}

// States returns the merged global state vector (live view; do not
// mutate). It is reassembled at each Update's merge barrier, so snapshots
// cut between batches span all shards consistently — /query scatter-gather
// reads come from one exchange round by construction.
func (gr *Group) States() []float64 { return gr.merged }

// ShardInfos returns a per-shard summary (safe for concurrent use with
// Update; /metrics calls this from HTTP goroutines).
func (gr *Group) ShardInfos() []Info {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	out := make([]Info, len(gr.infos))
	copy(out, gr.infos)
	return out
}

// Update routes the applied batch to the shards and iterates boundary
// exchanges to the global fixpoint. The global graph must already reflect
// the batch (delta.Apply first), exactly as for every other engine.
func (gr *Group) Update(applied *delta.Applied) inc.Stats {
	start := time.Now()
	cap := gr.global.Cap()
	gr.growTo(cap)

	for _, v := range applied.AddedVertices {
		if gr.owner[v] < 0 {
			gr.owner[v] = assignOwner(v, gr.k, gr.owner, applied)
		}
	}

	subs := make([]*delta.Applied, gr.k)
	for s := range subs {
		subs[s] = &delta.Applied{AddedVertices: applied.AddedVertices, RemovedVertices: applied.RemovedVertices}
	}
	for _, e := range applied.RemovedEdges {
		s := gr.owner[e.To]
		subs[s].RemovedEdges = append(subs[s].RemovedEdges, e)
	}
	for _, e := range applied.AddedEdges {
		s := gr.owner[e.To]
		subs[s].AddedEdges = append(subs[s].AddedEdges, e)
	}

	// Min scheme: close the cross-shard invalidation tags BEFORE any
	// recomputation, so no shard rebuilds a value out of mirror pins that
	// are themselves about to be invalidated (ghost cycles).
	var extraResets [][]graph.VertexID
	if gr.idem && (len(applied.RemovedEdges) > 0 || len(applied.RemovedVertices) > 0) {
		extraResets = gr.tagClosure(subs)
	}

	// Round-0 pin syncs for newly mirrored vertices: a cross-shard edge
	// inserted toward a new shard needs the source's current published
	// value there before the first run.
	cur := make([][]pinUpdate, gr.k)
	var boundary int64
	for _, e := range applied.AddedEdges {
		s := gr.owner[e.To]
		u := e.From
		if gr.owner[u] == s || gr.mirror[s][u] {
			continue
		}
		gr.mirror[s][u] = true
		if x := gr.published[u]; x != gr.zero {
			cur[s] = append(cur[s], pinUpdate{v: u, x: x})
			boundary++
		}
	}

	rounds, pins, agg := gr.exchange(applied, subs, cur, extraResets)
	gr.assembleMerged()
	gr.refreshInfos()

	agg.Duration = time.Since(start)
	agg.ShardRounds = int64(rounds)
	agg.BoundaryPins = boundary + pins
	return agg
}

// exchange drives the iterate-until-global-fixpoint loop: every shard
// engine runs one round in its own goroutine, the deterministic merge
// barrier collects boundary changes in shard-then-vertex order, and the
// changed values become the next round's pins. Round 0 carries the batch
// and its per-shard slices (when applied is non-nil); later rounds are
// pin-only. extraResets is consumed in round 0 only.
func (gr *Group) exchange(applied *delta.Applied, subs []*delta.Applied, cur [][]pinUpdate,
	extraResets [][]graph.VertexID) (rounds int, pins int64, agg inc.Stats) {
	hasBatch := applied != nil
	stats := make([]inc.Stats, gr.k)
	cands := make([][]graph.VertexID, gr.k)
	targetCap := gr.global.Cap()
	for {
		if !hasBatch || rounds > 0 {
			empty := true
			for _, p := range cur {
				if len(p) > 0 {
					empty = false
					break
				}
			}
			if empty {
				break
			}
		}
		if rounds >= maxRounds {
			panic(fmt.Sprintf("shard: boundary exchange did not reach a fixpoint within %d rounds", maxRounds))
		}
		var wg sync.WaitGroup
		for s := 0; s < gr.k; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				u := gr.engines[s]
				var sub, global *delta.Applied
				var resets []graph.VertexID
				if rounds == 0 && hasBatch {
					sub, global = subs[s], applied
					u.apply(sub, targetCap)
					if extraResets != nil {
						resets = extraResets[s]
					}
				}
				stats[s], cands[s] = u.update(sub, global, cur[s], resets)
			}(s)
		}
		wg.Wait()

		next := make([][]pinUpdate, gr.k)
		for s := 0; s < gr.k; s++ {
			agg.Activations += stats[s].Activations
			agg.Rounds += stats[s].Rounds
			agg.Resets += stats[s].Resets
			for _, v := range sortedVertices(cands[s]) {
				if int(v) >= len(gr.owner) || gr.owner[v] != int32(s) {
					continue
				}
				nx := gr.engines[s].k.States()[v]
				if !gr.significant(nx, gr.published[v]) {
					continue
				}
				gr.published[v] = nx
				if !gr.global.Alive(v) {
					continue // every shard already zeroed its local copy
				}
				pins += gr.fanOut(v, nx, next)
			}
		}
		cur = next
		rounds++
	}
	return rounds, pins, agg
}

// fanOut enqueues a boundary value to every shard mirroring v and returns
// how many pins it sent.
func (gr *Group) fanOut(v graph.VertexID, x float64, out [][]pinUpdate) int64 {
	var n int64
	for t := 0; t < gr.k; t++ {
		if int32(t) != gr.owner[v] && gr.mirror[t][v] {
			out[t] = append(out[t], pinUpdate{v: v, x: x})
			n++
		}
	}
	return n
}

// significant reports whether a boundary value moved enough to republish:
// exact inequality for the min scheme, beyond the algorithm's tolerance
// for the sum scheme (sub-tolerance drift is exactly the noise the engine
// itself drops, so the exchange terminates).
func (gr *Group) significant(nx, old float64) bool {
	if gr.idem {
		return nx != old
	}
	d := nx - old
	if d < 0 {
		d = -d
	}
	return d > gr.base.Tolerance()
}

// tagClosure computes the cross-shard invalidation closure of the min
// scheme: each shard's local seeds (removed dependency edges, removed
// vertices) cascade down its dependency forest, walked over the kernel's
// out-rows; when a tagged vertex is
// mirrored elsewhere, the tag crosses into those shards and cascades
// there too. Owned tagged boundary vertices have their published value
// reset to zero so their post-recompute value is republished even when it
// recovers unchanged. The per-shard result lists the MIRRORS each shard
// must invalidate (its own seeds are rediscovered by its kernel).
func (gr *Group) tagClosure(subs []*delta.Applied) [][]graph.VertexID {
	cap := gr.global.Cap()
	for _, u := range gr.engines {
		u.tagged.Reset(cap)
	}
	type ev struct {
		s int
		v graph.VertexID
	}
	var queue []ev
	push := func(s int, v graph.VertexID) {
		if int(v) < len(gr.engines[s].k.Parents()) && gr.engines[s].tagged.Add(v) {
			queue = append(queue, ev{s, v})
		}
	}
	for s, u := range gr.engines {
		for _, v := range u.localTagSeeds(subs[s]) {
			push(s, v)
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		// The kernel's rows and parents are still pre-batch here, so the
		// children of e.v are the targets on its row that it parents.
		k := gr.engines[e.s].k
		for _, r := range k.Row(e.v) {
			if k.Parents()[r.To] == e.v {
				push(e.s, r.To)
			}
		}
		if gr.owner[e.v] == int32(e.s) {
			for t := 0; t < gr.k; t++ {
				if t != e.s && gr.mirror[t][e.v] {
					push(t, e.v)
				}
			}
			gr.published[e.v] = gr.zero
		}
	}
	out := make([][]graph.VertexID, gr.k)
	for s, u := range gr.engines {
		for _, v := range u.tagged.List {
			if gr.owner[v] != int32(s) {
				out[s] = append(out[s], v)
			}
		}
	}
	return out
}

// growTo extends the owner table, mirror bitmaps and merged vectors to
// the global capacity.
func (gr *Group) growTo(cap int) {
	for len(gr.owner) < cap {
		gr.owner = append(gr.owner, unowned)
	}
	for s := range gr.mirror {
		for len(gr.mirror[s]) < cap {
			gr.mirror[s] = append(gr.mirror[s], false)
		}
	}
	gr.published = inc.GrowVectors(gr.published, cap, gr.zero)
	gr.merged = inc.GrowVectors(gr.merged, cap, gr.zero)
}

// assembleMerged rebuilds the global state vector from the owners' local
// vectors; unowned (never-alive) ids read as the semiring zero, matching
// what a single engine holds for them.
func (gr *Group) assembleMerged() {
	for v := range gr.merged {
		s := gr.owner[v]
		gr.merged[v] = gr.zero
		if s >= 0 {
			if x := gr.engines[s].k.States(); v < len(x) {
				gr.merged[v] = x[v]
			}
		}
	}
}

// refreshInfos recomputes the per-shard summaries under the mutex.
func (gr *Group) refreshInfos() {
	infos := make([]Info, gr.k)
	for s := 0; s < gr.k; s++ {
		infos[s] = Info{
			Shard:       s,
			Edges:       gr.engines[s].gs.NumEdges(),
			Activations: gr.engines[s].activations,
			Rounds:      gr.engines[s].rounds,
		}
	}
	for v, o := range gr.owner {
		if o >= 0 && gr.global.Alive(graph.VertexID(v)) {
			infos[o].OwnedVertices++
		}
	}
	for s := 0; s < gr.k; s++ {
		for _, m := range gr.mirror[s] {
			if m {
				infos[s].Mirrors++
			}
		}
	}
	gr.mu.Lock()
	gr.infos = infos
	gr.mu.Unlock()
}
