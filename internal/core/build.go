package core

import (
	"sort"
	"time"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/metrics"
	"layph/internal/pool"
)

// New builds the layered graph for g under algorithm a (offline phase) and
// runs the initial batch computation over the flat layered graph, memoizing
// states (and dependency parents for idempotent algorithms).
//
// Construction is the update's structural rebuild applied to everything: it
// detects the communities, lays out a flat graph in which every live vertex
// is an outlier with its row queued, registers one shell subgraph per
// community, and lets settle decide each one — dense-subgraph selection and
// vertex replication (restructure), flat rows and roles, frames and
// shortcut deduction, skeleton rows — exactly as an update re-decides a
// structurally changed subgraph.
func New(g *graph.Graph, a algo.Algorithm, opt Options) *Layph {
	l := &Layph{
		g:          g,
		a:          a,
		sr:         a.Semiring(),
		opt:        opt,
		subs:       make(map[int32]*Subgraph),
		proxiesOf:  make(map[graph.VertexID][]proxyRef),
		LastPhases: metrics.NewPhases(),
	}
	l.pool = pool.New(opt.Workers)
	l.lup = engine.NewRunner(l.sr)
	l.tol = a.Tolerance()
	if l.opt.Community.MaxSize == 0 {
		// The paper's rule of thumb, ~0.1% of |V|; the floor keeps small
		// graphs from fragmenting below density.
		l.opt.Community.MaxSize = min(max(g.NumVertices()/1000, 64), 4096)
	}

	buildStart := time.Now()
	l.part = community.Detect(g, l.opt.Community)
	l.OfflineStats.DetectSeconds = time.Since(buildStart).Seconds()

	l.origCap = g.Cap()
	l.growFlat(l.origCap, NoSubgraph, RoleDead, NoHost)
	l.beginLayering()
	g.Vertices(func(v graph.VertexID) {
		l.setRole(v, RoleOutlier)
		l.touch(v)
	})
	members := l.part.Members()
	pending := make([]int32, len(members))
	for c, ms := range members {
		l.subs[int32(c)] = &Subgraph{ID: int32(c)}
		for _, v := range ms {
			l.subOf[v] = int32(c)
		}
		pending[c] = int32(c)
	}
	l.commVerts = members
	l.OfflineStats.ShortcutActivations = l.settle(nil, pending).shortcutActivations
	l.OfflineStats.ShortcutCount = l.ShortcutCount()
	l.OfflineStats.DenseSubgraphs = len(l.subs)
	l.OfflineStats.Proxies = l.flatN() - l.origCap
	// The counters pin the structural work of updates, and the working sets
	// were sized for the whole graph.
	l.evaluations, l.builds = 0, 0
	l.scratch = updScratch{}
	l.OfflineStats.BuildSeconds = time.Since(buildStart).Seconds()

	// Initial batch run on the flat layered graph.
	initStart := time.Now()
	x0, m0 := engine.InitVectors(g, a)
	fn := l.flatN()
	res := engine.Run(&engine.Frame{Out: l.flatOut}, l.sr,
		inc.GrowVectors(x0, fn, l.sr.Zero()), inc.GrowVectors(m0, fn, l.sr.Zero()), engine.Options{
			Tolerance:    l.tol,
			TrackParents: l.sr.Idempotent(),
		})
	l.x = res.X
	l.parent = res.Parent
	l.OfflineStats.InitialSeconds = time.Since(initStart).Seconds()
	return l
}

// subgraphList collects a subgraph map's values in ascending ID order, so
// parallel fan-outs process (and merge) a deterministic task sequence
// regardless of map iteration order.
func subgraphList(m map[int32]*Subgraph) []*Subgraph {
	out := make([]*Subgraph, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sortSubgraphs(out)
	return out
}

func sortSubgraphs(subs []*Subgraph) {
	sort.Slice(subs, func(a, b int) bool { return subs[a].ID < subs[b].ID })
}

// buildSubgraph (re)constructs one subgraph — member classification, local
// frame, full shortcut deduction on the task's working set ts — and returns
// the F applications spent.
func (l *Layph) buildSubgraph(s *Subgraph, ts *taskScratch) int64 {
	l.classifyMembers(s)
	l.buildLocalFrame(s)
	return l.deduceShortcuts(s, ts)
}

// classifyMembers gives the subgraph a new frame holding its members, from
// the current liveness and assignments, and classifies them by role.
func (l *Layph) classifyMembers(s *Subgraph) {
	lf := &localFrame{ids: make([]graph.VertexID, 0, len(s.members()))}
	for _, v := range l.commVerts[s.ID] {
		if l.flatAlive(v) && l.subOf[v] == s.ID {
			lf.ids = append(lf.ids, v)
		}
	}
	for _, p := range s.proxies {
		if l.flatAlive(p) && l.subOf[p] == s.ID {
			lf.ids = append(lf.ids, p)
		}
	}
	s.Local = lf
	l.classifyRoles(s)
}

// classifyRoles re-partitions the subgraph's members into its Entries and
// Internal lists and recounts NumExits by their current roles.
func (l *Layph) classifyRoles(s *Subgraph) {
	s.Entries = s.Entries[:0]
	s.NumExits = 0
	s.Internal = s.Internal[:0]
	for _, v := range s.Local.ids {
		r := l.role[v]
		if r.IsEntry() {
			s.Entries = append(s.Entries, v)
		}
		if r == RoleExit || r == RoleEntryExit {
			s.NumExits++
		}
		if r == RoleInternal {
			s.Internal = append(s.Internal, v)
		}
	}
}
