package core

import (
	"sort"
	"time"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/metrics"
	"layph/internal/pool"
)

// New builds the layered graph for g under algorithm a (offline phase) and
// runs the initial batch computation over the flat layered graph, memoizing
// states (and dependency parents for idempotent algorithms).
func New(g *graph.Graph, a algo.Algorithm, opt Options) *Layph {
	l := &Layph{
		g:          g,
		a:          a,
		sr:         a.Semiring(),
		opt:        opt,
		subs:       make(map[int32]*Subgraph),
		entryProxy: make(map[proxyKey]graph.VertexID),
		exitProxy:  make(map[proxyKey]graph.VertexID),
		LastPhases: metrics.NewPhases(),

		entryProxiesOf: make(map[graph.VertexID][]graph.VertexID),
	}
	l.pool = pool.New(opt.Workers)
	l.lup = engine.NewRunner(l.sr)
	l.tol = a.Tolerance()
	if l.opt.Community.MaxSize == 0 {
		k := g.NumVertices() / 1000 // the paper's rule of thumb: ~0.1% of |V|
		if k < 64 {
			k = 64 // floor keeps small graphs from fragmenting below density
		}
		if k > 4096 {
			k = 4096
		}
		l.opt.Community.MaxSize = k
	}

	buildStart := time.Now()
	l.part = community.Detect(g, l.opt.Community)

	n := g.Cap()
	l.origCap = n
	l.subOf = make([]int32, n)
	l.role = make([]Role, n)
	l.proxyHost = make([]graph.VertexID, n)
	l.proxyAlive = make([]bool, n)
	l.localIdx = make([]int32, n)
	for v := 0; v < n; v++ {
		l.subOf[v] = NoSubgraph
		l.role[v] = RoleDead
		l.proxyHost[v] = NoHost
		l.localIdx[v] = -1
		if g.Alive(graph.VertexID(v)) {
			l.setRole(graph.VertexID(v), RoleOutlier)
		}
	}
	l.flatOut = make([][]engine.WEdge, n)
	l.flatIn = make([][]engine.WEdge, n)
	l.upOut = make([][]engine.WEdge, n)
	l.x = make([]float64, n) // placeholder; re-initialized before the batch run

	// Dense-subgraph selection and proxy allocation.
	members := l.part.Members()
	for c := int32(0); int(c) < len(members); c++ {
		ms := members[c]
		d := l.evaluateCommunity(c, ms)
		if !d.dense {
			continue
		}
		s := &Subgraph{ID: c, origMembers: append([]graph.VertexID(nil), ms...)}
		for _, v := range ms {
			l.subOf[v] = c
		}
		for _, h := range d.entryHosts {
			s.proxies = append(s.proxies, l.allocProxy(true, c, h))
		}
		for _, h := range d.exitHosts {
			s.proxies = append(s.proxies, l.allocProxy(false, c, h))
		}
		l.subs[c] = s
	}
	if l.opt.AdaptiveCommunities {
		// members was just materialized from the fresh partition; keep it as
		// the per-community index adaptMembership maintains incrementally.
		l.commVerts = members
	}

	// Flat graph over the final ID space.
	fn := l.flatN()
	for v := 0; v < fn; v++ {
		l.flatOut[v] = l.computeFlatOut(graph.VertexID(v))
	}
	for v := 0; v < fn; v++ {
		for _, e := range l.flatOut[v] {
			l.flatIn[e.To] = append(l.flatIn[e.To], engine.WEdge{To: graph.VertexID(v), W: e.W})
		}
	}

	// Roles, member lists, local frames, shortcuts. Subgraphs are
	// disjoint and their construction only reads the (now frozen) flat
	// adjacency and role vectors, so the per-subgraph pass fans out over
	// the worker pool.
	all := make([]graph.VertexID, fn)
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	l.recomputeRoles(all)
	scActs, _ := l.buildSubgraphs(subgraphList(l.subs))
	l.OfflineStats.ShortcutActivations += scActs
	l.OfflineStats.ShortcutCount = l.ShortcutCount()
	l.OfflineStats.DenseSubgraphs = len(l.subs)
	l.OfflineStats.Proxies = fn - n

	// Upper layer.
	for v := 0; v < fn; v++ {
		l.refreshUpVertex(graph.VertexID(v))
	}
	l.OfflineStats.BuildSeconds = time.Since(buildStart).Seconds()

	// Initial batch run on the flat layered graph.
	initStart := time.Now()
	x0 := make([]float64, fn)
	m0 := make([]float64, fn)
	for v := 0; v < fn; v++ {
		x0[v], m0[v] = l.sr.Zero(), l.sr.Zero()
		if v < g.Cap() && g.Alive(graph.VertexID(v)) {
			x0[v] = a.InitState(graph.VertexID(v))
			m0[v] = a.InitMessage(graph.VertexID(v))
		}
	}
	res := engine.Run(&engine.Frame{Out: l.flatOut}, l.sr, x0, m0, engine.Options{
		Workers:      opt.Workers,
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

// buildSubgraphs (re)constructs each listed subgraph — member
// classification, local frame, full shortcut deduction — and returns the
// total F applications spent plus the number of pool tasks dispatched.
func (l *Layph) buildSubgraphs(subs []*Subgraph) (int64, int64) {
	_, acts, tasks := l.forSubgraphs(subs, func(s *Subgraph, parallelEntries bool, listed []graph.VertexID) ([]graph.VertexID, int64) {
		l.classifyMembers(s)
		l.buildLocalFrame(s)
		return listed, l.deduceShortcuts(s, parallelEntries)
	})
	return acts, tasks
}

// subgraphTask is one subgraph's share of a shortcut fan-out: it may fan
// out over the subgraph's entries when parallelEntries is set, appends the
// entries whose skeleton rows its shortcut changes made stale to listed,
// and returns the F applications spent.
type subgraphTask func(s *Subgraph, parallelEntries bool, listed []graph.VertexID) ([]graph.VertexID, int64)

// forSubgraphs runs task over subs on the worker pool and merges the
// results in task order. The fan-out axis adapts to the work shape: with
// several subgraphs, one pool task per fused chunk of subgraphs (entries
// within each handled sequentially); with a single subgraph, the task may
// fan out over its entries instead. One level of fan-out either way keeps
// the pool's busy-time accounting exact (no task ever blocks inside another
// task); the pool's inline fallback would keep even accidental nesting
// deadlock-free. Tasks write only their own subgraph and read shared
// structure that is frozen for the duration of the fan-out. Returns the
// listed entries, the F applications and the number of pool tasks.
func (l *Layph) forSubgraphs(subs []*Subgraph, task subgraphTask) ([]graph.VertexID, int64, int64) {
	if len(subs) == 0 {
		return nil, 0, 0
	}
	if len(subs) == 1 {
		listed, acts := task(subs[0], true, nil)
		return listed, acts, 1
	}
	chunks := l.subgraphChunks(subs)
	type result struct {
		listed []graph.VertexID
		acts   int64
	}
	results := make([]result, len(chunks))
	grp := l.pool.Group()
	for i, ch := range chunks {
		i, ch := i, ch
		grp.Go(func() {
			var r result
			for _, s := range ch {
				var a int64
				r.listed, a = task(s, false, r.listed)
				r.acts += a
			}
			results[i] = r
		})
	}
	grp.Wait()
	var listed []graph.VertexID
	var acts int64
	for _, r := range results {
		listed = append(listed, r.listed...)
		acts += r.acts
	}
	return listed, acts, int64(len(chunks))
}

// classifyMembers fills the subgraph's member and role lists from the
// current liveness and role assignments.
func (l *Layph) classifyMembers(s *Subgraph) {
	s.Members = s.Members[:0]
	for _, v := range s.origMembers {
		if l.flatAlive(v) && l.subOf[v] == s.ID {
			s.Members = append(s.Members, v)
		}
	}
	for _, p := range s.proxies {
		if l.flatAlive(p) && l.subOf[p] == s.ID {
			s.Members = append(s.Members, p)
		}
	}
	l.classifyRoles(s)
}

// classifyRoles re-partitions the subgraph's members into its Entries,
// Exits and Internal lists by their current roles.
func (l *Layph) classifyRoles(s *Subgraph) {
	s.Entries = s.Entries[:0]
	s.Exits = s.Exits[:0]
	s.Internal = s.Internal[:0]
	for _, v := range s.Members {
		r := l.role[v]
		if r.IsEntry() {
			s.Entries = append(s.Entries, v)
		}
		if r == RoleExit || r == RoleEntryExit {
			s.Exits = append(s.Exits, v)
		}
		if r == RoleInternal {
			s.Internal = append(s.Internal, v)
		}
	}
}
