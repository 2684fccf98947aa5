// Package core implements Layph, the paper's primary contribution: a
// two-layered graph framework that constrains the change propagation of
// incremental graph processing.
//
// The upper layer (Lup) is a small skeleton: the entry/exit vertices of all
// dense subgraphs, the vertices that belong to no dense subgraph (outliers),
// the original edges among them, and shortcuts that teleport messages from
// entry vertices across each dense subgraph. The lower layer (Llow) holds
// the internal vertices and intra-subgraph edges. Incremental runs perform
// (1) a layered-graph update restricted to the subgraphs hit by ΔG,
// (2) a revision-message upload via local per-subgraph fixpoints,
// (3) the only global iteration — on the small Lup skeleton — and
// (4) a one-shot assignment of the accumulated entry messages to internal
// vertices through entry→internal shortcuts.
//
// Vertex replication (Section IV-A1): a high-degree external vertex with at
// least R parallel edges into (out of) one dense subgraph is replicated
// inside it as a proxy; the host↔proxy link carries the semiring unit, so
// path algebra is preserved while many boundary vertices become internal and
// the skeleton shrinks (Figure 8 measures the effect). Proxies are stored
// once, as one list of refs per host (Layph.proxiesOf) naming each proxy's
// subgraph and side. A proxy is live while subOf names a subgraph; a retired
// one keeps its ref and flat slot, and re-replicating the same host into the
// same subgraph on the same side revives that slot.
//
// The package works on the "flat" layered graph: the original graph with
// proxy rewiring applied but no shortcuts. The flat graph is
// message-equivalent to the original, and all memoized state (vertex states
// and, for idempotent algorithms, dependency parents) lives on it.
package core

import (
	"sync/atomic"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/metrics"
	"layph/internal/pool"
)

// Role classifies a flat vertex with respect to the layered structure.
type Role uint8

// Role values. Boundary roles (entry/exit) place a vertex on Lup.
const (
	// RoleOutlier is a vertex in no dense subgraph; it lives on Lup.
	RoleOutlier Role = iota
	// RoleEntry is a dense-subgraph vertex with an external in-edge.
	RoleEntry
	// RoleExit is a dense-subgraph vertex with an external out-edge.
	RoleExit
	// RoleEntryExit is both.
	RoleEntryExit
	// RoleInternal is a dense-subgraph vertex with no external edges; it
	// lives on Llow and is excluded from global iteration.
	RoleInternal
	// RoleDead marks tombstoned vertices and orphaned proxies.
	RoleDead
)

func (r Role) String() string {
	switch r {
	case RoleOutlier:
		return "outlier"
	case RoleEntry:
		return "entry"
	case RoleExit:
		return "exit"
	case RoleEntryExit:
		return "entry+exit"
	case RoleInternal:
		return "internal"
	case RoleDead:
		return "dead"
	}
	return "?"
}

// IsEntry reports whether the role receives external messages.
func (r Role) IsEntry() bool { return r == RoleEntry || r == RoleEntryExit }

// IsBoundary reports whether the role is on Lup as part of a dense subgraph.
func (r Role) IsBoundary() bool {
	return r == RoleEntry || r == RoleExit || r == RoleEntryExit
}

// onUp reports whether the role places a vertex on Lup.
func (r Role) onUp() bool { return r == RoleOutlier || r.IsBoundary() }

// NoSubgraph marks vertices outside every dense subgraph.
const NoSubgraph = int32(-1)

// Subgraph is one dense lower-layer subgraph (paper Definition 2).
type Subgraph struct {
	// ID is the community id backing this subgraph (stable across updates).
	ID int32
	// Entries and Internal list the subgraph's members by role, and
	// NumExits counts its exits (an entry+exit vertex is in Entries and
	// counted in NumExits).
	Entries  []graph.VertexID
	NumExits int
	Internal []graph.VertexID
	// Local is the compact message-passing frame over the members' internal
	// edges; shortcut deduction and upload fixpoints run on it. Its ids are
	// the members: live original members plus this subgraph's proxies.
	// A shell subgraph that was never built has none.
	Local *localFrame

	// proxies are this subgraph's live proxy vertices; its original
	// vertices are its community's members (Layph.commVerts).
	proxies []graph.VertexID

	// Shortcuts, indexed by the entry's compact ID (only entry slots are
	// populated). scVec[cu] is entry Local.ids[cu]'s local fixpoint over
	// compact IDs (Equation 6): slot c is the weight of the shortcut to
	// member Local.ids[c], the semiring zero for none. It is the only store
	// of shortcuts: the skeleton rows take the slots of boundary members
	// (appendUpOut) and assignment those of internal members, each reading
	// the member's current role. The vectors are memoized for incremental
	// maintenance (Section IV-B): internal edge changes are absorbed with
	// revision messages instead of full re-deduction. scParent[cu]
	// (idempotent algorithms only) holds the deduction fixpoint's compact
	// dependency parents — cu for a value its own edge seeded, otherwise
	// the absorbing-frame in-neighbour whose message set it — so a
	// shortcut's flat parent is the last hop of its deduction path.
	scVec    [][]float64
	scParent [][]graph.VertexID
}

// members returns the subgraph's flat vertices in compact-ID order, none
// for a shell subgraph.
func (s *Subgraph) members() []graph.VertexID {
	if s.Local == nil {
		return nil
	}
	return s.Local.ids
}

// compactID returns v's compact index within subgraph s, or (-1, false)
// when v is not a current member. The subOf gate comes first: during
// parallel per-subgraph rebuilds it keeps a task from reading localIdx
// slots another task owns (memberships are disjoint and subOf is frozen
// while tasks are in flight). The ids check then rejects stale slots of
// dead ex-members whose subOf still points here.
func (l *Layph) compactID(s *Subgraph, v graph.VertexID) (int32, bool) {
	if int(v) >= len(l.subOf) || l.subOf[v] != s.ID || s.Local == nil {
		return -1, false
	}
	ci := l.localIdx[v]
	if ci >= 0 && int(ci) < len(s.Local.ids) && s.Local.ids[ci] == v {
		return ci, true
	}
	return -1, false
}

// shortcutVec returns entry u's shortcut vector in s (nil for
// non-entries).
func (l *Layph) shortcutVec(s *Subgraph, u graph.VertexID) []float64 {
	if cu, ok := l.compactID(s, u); ok && int(cu) < len(s.scVec) {
		return s.scVec[cu]
	}
	return nil
}

// isShortcut reports whether slot c of entry cu's vector vec is a
// shortcut: a nonzero weight, where the entry's own slot counts only under
// a sum semiring (a cycle back to the entry cannot improve an idempotent
// value).
func (l *Layph) isShortcut(vec []float64, cu, c int) bool {
	return vec[c] != l.sr.Zero() && (c != cu || !l.sr.Idempotent())
}

// localFrame is a compact-ID projection of a subgraph's internal edges.
//
// Local fixpoints run on its absorbing view (Layph.absorbing), which reads
// an entry's row as empty: entries are absorbing in local fixpoints, because
// everything an entry holds is propagated internally by shortcut
// application instead (shortcut weights count internal paths that avoid
// intermediate entries, so Lup shortcut composition covers through-entry
// paths exactly once — no double counting in the sum semiring). The view's
// in-edges are read off the flat in-rows (Layph.absorbIn).
type localFrame struct {
	ids []graph.VertexID // compact -> global (global -> compact is Layph.localIdx)
	out [][]engine.WEdge // internal adjacency
	// edges counts the internal adjacency's entries; the chunked task
	// fusion sizes pool tasks by it, and the density test of an edited
	// subgraph reads it as |E_i|.
	edges int
	// edit holds this update's pre-edit rows of the vertices editFrame
	// changed; patchShortcuts derives the net frame diff from it.
	edit frameEdit
}

// frameEdit snapshots, at their first edit in an update, the rows of the
// compact vertices whose frame rows or roles an update changed. Entries of
// cis and oldOut are parallel; mark[ci] == epoch flags a snapshot taken in
// the current update.
type frameEdit struct {
	epoch  uint32
	mark   []uint32
	cis    []graph.VertexID
	oldOut [][]engine.WEdge
}

// absorbing is the absorbing view of a local frame under the roles it was
// built with: an entry's row is empty, every other member's is its frame
// row.
type absorbing struct {
	lf   *localFrame
	role []Role
}

// absorbing returns s's absorbing view under the current roles. The roles
// are frozen while subgraph tasks run, so a view serves a whole fan-out.
func (l *Layph) absorbing(s *Subgraph) engine.Rows { return absorbing{s.Local, l.role} }

func (a absorbing) N() int { return a.lf.size() }

func (a absorbing) Row(c graph.VertexID) []engine.WEdge {
	if a.role[a.lf.ids[c]].IsEntry() {
		return nil
	}
	return a.lf.out[c]
}

func (lf *localFrame) size() int { return len(lf.ids) }

// proxyRef is one proxy of a host: flat vertex p replicates the host into
// subgraph sub, on the entry side (carrying the host's edges into sub) or
// the exit side (collecting sub's edges to the host).
type proxyRef struct {
	p     graph.VertexID
	sub   int32
	entry bool
}

// Options configures layered-graph construction and the online engine.
type Options struct {
	// Community configures dense-subgraph discovery; MaxSize is the paper's
	// K (0 lets New pick ~0.1% of |V|, clamped to [64, 4096]).
	Community community.Config
	// DisableReplication turns vertex replication off (Figure 8's
	// ablation); otherwise an external vertex with at least
	// replicationThreshold parallel edges into/out of one subgraph is
	// replicated as a proxy.
	DisableReplication bool
	// Workers sizes the shared pool that runs independent lower-layer
	// subgraph tasks (upload fixpoints, shortcut deduction, assignment
	// replay) concurrently (0 = GOMAXPROCS); Workers=1 is strictly
	// sequential. It sizes nothing else: every engine run — the initial
	// run, the Lup iteration and each local fixpoint, min and sum alike —
	// is the engine's sequential worklist, identical for every Workers.
	Workers int
}

// replicationThreshold is the paper's R.
const replicationThreshold = 3

// replication returns R, or 0 when replication is disabled.
func (o Options) replication() int {
	if o.DisableReplication {
		return 0
	}
	return replicationThreshold
}

// Layph is the layered incremental engine (implements inc.System).
type Layph struct {
	g   *graph.Graph
	a   algo.Algorithm
	sr  algo.Semiring
	opt Options
	tol float64
	// pool is the shared bounded worker pool (size opt.Workers) running
	// the independent lower-layer subgraph tasks of every parallel phase.
	pool *pool.Pool

	// part holds the community membership of original vertices, frozen
	// between landings: a vertex added since the last detection is in no
	// community (an outlier), a removed one keeps its stale id, and only a
	// landing (Redetect) changes the partition.
	part *community.Partition
	// commVerts indexes member lists by community id: built from the
	// partition and replaced by a landing, so neither a rebuild nor the
	// promotion of a community a landing changed rescans the partition.
	// May retain dead vertices — readers filter by liveness, and a
	// restructure drops them.
	commVerts [][]graph.VertexID
	// subs maps community id -> dense subgraph (absent = dissolved/sparse).
	subs map[int32]*Subgraph

	// Flat-vertex metadata; indices cover originals then proxies. A proxy
	// is live exactly while its subOf names a subgraph.
	subOf     []int32
	role      []Role
	proxyHost []graph.VertexID // NoHost for non-proxies
	// localIdx maps a flat vertex to its compact index inside its own
	// subgraph's local frame (-1 outside any frame). One shared dense
	// vector works because subgraph memberships are disjoint; staleness
	// after membership changes is caught by compactID's ids check.
	localIdx []int32
	// proxiesOf lists every proxy ever allocated for a host, live or not,
	// at most one per (subgraph, side), in allocation order.
	proxiesOf map[graph.VertexID][]proxyRef

	// Flat layered graph (original + proxy rewiring, semiring weights);
	// flatIn is the only in-adjacency (absorbing-frame in-edges are read off
	// it by absorbIn).
	flatOut [][]engine.WEdge
	flatIn  [][]engine.WEdge
	// Upper-layer skeleton (cross edges + proxy links + entry shortcuts).
	upOut [][]engine.WEdge

	// live and skel count the vertices whose role is not RoleDead and
	// those on Lup; setRole maintains them.
	live, skel int

	// Memoized computation state over the flat ID space.
	x      []float64
	parent []graph.VertexID // idempotent algorithms only
	// origCap is the size of the original-vertex segment of the flat ID
	// space; proxies occupy [origCap, flatN).
	origCap int

	// scratch holds per-update working buffers reused across Update calls
	// (dense sets and O(n) vectors) so steady-state batches stop paying
	// per-vertex map allocations.
	scratch updScratch
	// lup runs the skeleton iteration in place; tasks is the free list of
	// the pool tasks' compact-frame working sets.
	lup   *engine.Runner
	tasks taskPool
	// epoch numbers the layering passes; frame edit snapshots carry it.
	epoch uint32
	// evaluations counts density evaluations of a community's prospective
	// layout and builds the subgraphs updates rebuilt, so tests can pin
	// which updates do structural work. upRows counts the skeleton rows
	// updates recomputed (refreshUpVertex), so tests can pin which rows a
	// batch refreshes; pool tasks add to it.
	evaluations, builds int64
	upRows              atomic.Int64

	// OfflineStats records construction + initial batch run cost (Fig 11b);
	// LastPhases records the most recent Update's per-phase runtime (Fig 7).
	OfflineStats OfflineStats
	LastPhases   *metrics.Phases
}

// NoHost marks non-proxy vertices in proxyHost.
const NoHost = graph.VertexID(engine.NoParent)

// OfflineStats describes the one-time preprocessing cost.
type OfflineStats struct {
	// BuildSeconds is layered-graph construction time (detection,
	// replication, shortcut deduction), DetectSeconds the community
	// detection share of it; InitialSeconds is the initial batch run on the
	// flat graph.
	BuildSeconds   float64
	DetectSeconds  float64
	InitialSeconds float64
	// ShortcutCount is the number of deduced shortcut weights (Fig 11a);
	// ShortcutActivations the F applications spent deducing them.
	ShortcutCount       int
	ShortcutActivations int64
	// DenseSubgraphs and Proxies describe the structure.
	DenseSubgraphs int
	Proxies        int
}

// flatAlive reports liveness of a flat vertex (original or proxy).
func (l *Layph) flatAlive(v graph.VertexID) bool {
	if int(v) < l.g.Cap() {
		return l.g.Alive(v)
	}
	return int(v) < len(l.subOf) && l.subOf[v] != NoSubgraph
}

// flatN returns the size of the flat ID space.
func (l *Layph) flatN() int { return len(l.flatOut) }

// onUp reports whether a flat vertex participates in the global iteration.
func (l *Layph) onUp(v graph.VertexID) bool { return l.role[v].onUp() }

// setRole changes v's role and keeps the live and skeleton counts in step,
// so the SkeletonFraction gauge reads them instead of scanning the flat ID
// space. Every role change goes through it: fresh slots start as RoleDead,
// and remapProxies only moves roles. A role is RoleDead exactly when the
// vertex is not alive (CheckInvariants holds roles to roleOf).
func (l *Layph) setRole(v graph.VertexID, r Role) {
	count := func(r Role, sign int) {
		if r != RoleDead {
			l.live += sign
		}
		if r.onUp() {
			l.skel += sign
		}
	}
	count(l.role[v], -1)
	count(r, 1)
	l.role[v] = r
}

// Name returns "layph".
func (l *Layph) Name() string { return "layph" }

// States returns the memoized states over the flat ID space; indices below
// g.Cap() are the original vertices' states.
func (l *Layph) States() []float64 { return l.x }

// Parents returns the dependency parents over the flat ID space for a min
// algorithm (engine.NoParent where a state has none), nil for a sum one.
func (l *Layph) Parents() []graph.VertexID { return l.parent }

// Graph returns the underlying graph.
func (l *Layph) Graph() *graph.Graph { return l.g }

// Subgraphs returns the dense subgraphs keyed by community id.
func (l *Layph) Subgraphs() map[int32]*Subgraph { return l.subs }

// UpperLayerSize returns the vertex and edge counts of the skeleton
// (Figure 8a's "Lup" and "reshaped Lup" series).
func (l *Layph) UpperLayerSize() (vertices, edges int) {
	for v := 0; v < l.flatN(); v++ {
		if l.flatAlive(graph.VertexID(v)) && l.onUp(graph.VertexID(v)) {
			vertices++
			edges += len(l.upOut[v])
		}
	}
	return vertices, edges
}

// ShortcutCount returns the current number of shortcut weights (Fig 11a).
func (l *Layph) ShortcutCount() int {
	n := 0
	for _, s := range l.subs {
		for cu, vec := range s.scVec {
			for c := range vec {
				if l.isShortcut(vec, cu, c) {
					n++
				}
			}
		}
	}
	return n
}
