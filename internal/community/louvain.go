// Package community implements the dense-subgraph discovery substrate of
// Layph's offline phase: size-capped Louvain modularity optimization
// (Blondel et al. 2008) over the undirected view of the graph, plus the
// incremental maintenance (in the spirit of DynaMo / C-Blondel) the paper
// prescribes for the online phase, so that the layered graph does not have
// to be rebuilt from scratch on every ΔG.
//
// The paper caps community sizes at a threshold K ("as a rule of thumb,
// K is set around 0.002–0.2% of the total number of vertices") because
// oversized subgraphs imbalance the shortcut workload; the cap is enforced
// during local moves and aggregation.
//
// Layout. Each Louvain level is one CSR (off, nbr, wt) over that level's
// nodes; an entry carries the summed weight of both edge directions, and
// self-loops are folded into the node's degree, the only place they are
// read. A local move sums its neighbours' weights per community into a
// dense accumulator indexed by community id, remembering the ids it touched
// and clearing through that list, so no map is built per visit. Aggregation
// numbers super-nodes in first-seen order of their communities,
// counting-sorts the old nodes by super-node and builds each super-node's
// row through the same accumulator.
//
// One move rule. Detection and the incremental adjustment (Adjust) share
// Louvain's local move, mover.move: detection gathers a node's CSR row into
// the accumulator, Adjust a live vertex's graph neighbours, and the same
// move detaches it, picks the best gain under the cap and attaches it.
// Adjust returns only the moves it made, its move log.
//
// Tie-break. A move scans the touched communities in ascending id and takes
// a candidate only if it beats the best gain so far by more than minGain, so
// exact ties go to the lowest id. Scanning in first-touch order instead
// would be cheaper but picks different partitions.
package community

import (
	"cmp"
	"slices"

	"layph/internal/graph"
)

// Config tunes detection.
type Config struct {
	// MaxSize caps the number of vertices per community (the paper's K).
	// 0 means no cap.
	MaxSize int
}

const (
	// maxLevels bounds the Louvain aggregation hierarchy.
	maxLevels = 10
	// maxSweeps bounds local-move sweeps per level.
	maxSweeps = 10
	// minGain is the modularity-gain threshold for a move.
	minGain = 1e-9
)

// Partition is a community assignment over a graph's ID space. Dead
// vertices carry the sentinel NoCommunity.
type Partition struct {
	// Comm maps vertex -> community id (dense, 0-based).
	Comm []int32
	// NumComms is the number of distinct communities.
	NumComms int
}

// NoCommunity marks tombstoned vertices.
const NoCommunity = int32(-1)

// Members returns the vertex lists per community.
func (p *Partition) Members() [][]graph.VertexID {
	out := make([][]graph.VertexID, p.NumComms)
	for v, c := range p.Comm {
		if c >= 0 {
			out[c] = append(out[c], graph.VertexID(v))
		}
	}
	return out
}

// Sizes returns the vertex count per community.
func (p *Partition) Sizes() []int {
	out := make([]int, p.NumComms)
	for _, c := range p.Comm {
		if c >= 0 {
			out[c]++
		}
	}
	return out
}

// LiveComms returns the number of community ids with at least one member.
// Under incremental adjustment (Adjust) ids are stable, so emptied
// communities keep their slot; the gap between LiveComms and NumComms is
// the dead-id bloat that a re-detection aligned by Align reclaims.
func (p *Partition) LiveComms() int {
	live := 0
	for _, n := range p.Sizes() {
		if n > 0 {
			live++
		}
	}
	return live
}

// Align renumbers fresh, a partition detected anew, onto the ids of live,
// the partition it replaces, and is where dead ids are reclaimed. The k
// non-empty communities of fresh take the ids [0, k): greedily by overlap,
// each takes the id below k of the live community it shares the most
// vertices with (ties to the lower live id, then the lower fresh id); the
// rest take the free ids in ascending order. It returns the old→new
// mapping of fresh's ids (NoCommunity for the dropped empty ones).
func Align(live, fresh *Partition) []int32 {
	sizes := fresh.Sizes()
	k := 0
	for _, n := range sizes {
		k += min(n, 1)
	}
	// Sorted (fresh, live) keys, one per shared vertex: a run is an overlap.
	var keys []uint64
	for v, c := range fresh.Comm {
		if v < len(live.Comm) && c >= 0 && live.Comm[v] >= 0 && int(live.Comm[v]) < k {
			keys = append(keys, uint64(c)<<32|uint64(live.Comm[v]))
		}
	}
	slices.Sort(keys)
	type overlap struct{ n, fresh, live int32 }
	var pairs []overlap
	for i, key := range keys {
		if i == 0 || key != keys[i-1] {
			pairs = append(pairs, overlap{0, int32(key >> 32), int32(uint32(key))})
		}
		pairs[len(pairs)-1].n++
	}
	slices.SortFunc(pairs, func(a, b overlap) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.live, b.live), cmp.Compare(a.fresh, b.fresh))
	})
	remap := slices.Repeat([]int32{NoCommunity}, fresh.NumComms)
	taken := make([]bool, k)
	for _, o := range pairs {
		if remap[o.fresh] == NoCommunity && !taken[o.live] {
			remap[o.fresh], taken[o.live] = o.live, true
		}
	}
	free := int32(0)
	for c, n := range sizes {
		if n > 0 && remap[c] == NoCommunity {
			for taken[free] {
				free++
			}
			remap[c], taken[free] = free, true
		}
	}
	for v, c := range fresh.Comm {
		if c >= 0 {
			fresh.Comm[v] = remap[c]
		}
	}
	fresh.NumComms = k
	return remap
}

// accumulator sums weights per dense id (a vertex, node or community) and
// remembers which ids it touched, so clearing costs the touched ids rather
// than the id space. An id counts as touched from its first add, whatever
// the weight: a community reached only through zero-weight edges is still a
// candidate.
type accumulator struct {
	w       []float64
	seen    []bool
	touched []int32
}

func newAccumulator(n int) *accumulator {
	return &accumulator{w: make([]float64, n), seen: make([]bool, n)}
}

func (a *accumulator) add(id int32, w float64) {
	if !a.seen[id] {
		a.seen[id] = true
		a.touched = append(a.touched, id)
	}
	a.w[id] += w
}

// grow extends the id space to n.
func (a *accumulator) grow(n int) {
	for len(a.w) < n {
		a.w = append(a.w, 0)
		a.seen = append(a.seen, false)
	}
}

// reset clears the touched ids.
func (a *accumulator) reset() {
	for _, id := range a.touched {
		a.w[id] = 0
		a.seen[id] = false
	}
	a.touched = a.touched[:0]
}

// flush appends the touched ids and their weights as one CSR row, in
// first-touch order, and resets.
func (a *accumulator) flush(nbr []int32, wt []float64) ([]int32, []float64) {
	for _, id := range a.touched {
		nbr = append(nbr, id)
		wt = append(wt, a.w[id])
	}
	a.reset()
	return nbr, wt
}

// mover holds the community aggregates a local move reads and writes over
// some id space: detection's nodes of one level, or the adjustment's live
// vertices.
type mover struct {
	comm   []int32
	ctot   []float64    // total degree per community
	csize  []int        // original-vertex count per community
	total2 float64      // 2m (total degree)
	acc    *accumulator // v's neighbour weight per community, filled by the caller
}

// move is Louvain's local move: it detaches v, takes the community with the
// best positive modularity gain under the size cap, attaches v there and
// returns v's old and new community. A vertex without a community is
// evaluated detached; it stays without one (NoCommunity) when no community
// gains. The accumulator must hold v's neighbour weights per community,
// self-loops excluded; move resets it.
func (m *mover) move(v int32, deg float64, size, maxSize int) (from, to int32) {
	cur := m.comm[v]
	acc := m.acc
	// Gain of joining community c: w(v,c)/m - deg(v)*ctot(c)/(2m^2); constant
	// factors dropped since we only compare.
	baseGain := 0.0
	if cur >= 0 {
		m.ctot[cur] -= deg
		m.csize[cur] -= size
		baseGain = acc.w[cur] - deg*m.ctot[cur]/m.total2
	}
	best := cur
	bestGain := 0.0
	// Ascending-id candidate scan with a strict improvement test: ties within
	// minGain resolve to the lowest community id, not the first touched.
	slices.Sort(acc.touched)
	for _, c := range acc.touched {
		if c == cur || maxSize > 0 && m.csize[c]+size > maxSize {
			continue
		}
		if gain := (acc.w[c] - deg*m.ctot[c]/m.total2) - baseGain; gain > bestGain+minGain {
			bestGain = gain
			best = c
		}
	}
	acc.reset()
	if best >= 0 {
		m.ctot[best] += deg
		m.csize[best] += size
	}
	m.comm[v] = best
	return cur, best
}

// louvainState is one level of the weighted undirected projection Louvain
// operates on, as a CSR: node i's neighbours are nbr[off[i]:off[i+1]] with
// the summed weights of both edge directions in wt. Self-loops (and, after
// aggregation, intra-community edges) appear only in deg. The accumulator
// is shared by every level, sized for the first.
type louvainState struct {
	mover
	n    int
	off  []int
	nbr  []int32
	wt   []float64
	deg  []float64 // weighted degree incl. 2*self-loop
	size []int     // vertices of the original graph folded into this node
}

func projectGraph(g *graph.Graph) *louvainState {
	n := g.Cap()
	s := &louvainState{
		n:     n,
		off:   make([]int, n+1),
		nbr:   make([]int32, 0, 2*g.NumEdges()),
		wt:    make([]float64, 0, 2*g.NumEdges()),
		deg:   make([]float64, n),
		size:  make([]int, n),
		mover: mover{acc: newAccumulator(n)},
	}
	g.Edges(func(u, v graph.VertexID, w float64) {
		if u == v {
			s.deg[u] += 2 * w
		} else {
			s.deg[u] += w
			s.deg[v] += w
		}
		s.total2 += 2 * w
	})
	for u := 0; u < n; u++ {
		v := graph.VertexID(u)
		if g.Alive(v) {
			s.size[u] = 1
			for _, e := range g.Out(v) {
				if e.To != v {
					s.acc.add(int32(e.To), e.W)
				}
			}
			for _, e := range g.In(v) {
				if e.To != v {
					s.acc.add(int32(e.To), e.W)
				}
			}
			s.nbr, s.wt = s.acc.flush(s.nbr, s.wt)
		}
		s.off[u+1] = len(s.nbr)
	}
	return s
}

func (s *louvainState) initSingletons() {
	s.comm = make([]int32, s.n)
	s.ctot = make([]float64, s.n)
	s.csize = make([]int, s.n)
	for i := 0; i < s.n; i++ {
		s.comm[i] = int32(i)
		s.ctot[i] = s.deg[i]
		s.csize[i] = s.size[i]
	}
}

// localMoves runs bounded best-gain sweeps; returns whether anything moved.
func (s *louvainState) localMoves(cfg Config) bool {
	if s.total2 == 0 {
		return false
	}
	movedAny := false
	order := make([]int, 0, s.n)
	for i := 0; i < s.n; i++ {
		if s.size[i] > 0 {
			order = append(order, i)
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		moved := false
		for _, v := range order {
			if s.moveVertex(int32(v), cfg) {
				moved = true
			}
		}
		if moved {
			movedAny = true
		} else {
			break
		}
	}
	return movedAny
}

// moveVertex gathers v's row per community and runs the local move.
// Returns whether v moved.
func (s *louvainState) moveVertex(v int32, cfg Config) bool {
	for k := s.off[v]; k < s.off[v+1]; k++ {
		s.acc.add(s.comm[s.nbr[k]], s.wt[k])
	}
	from, to := s.move(v, s.deg[v], s.size[v], cfg.MaxSize)
	return from != to
}

// aggregate folds communities into super-nodes and returns the mapping from
// old node to new node id. New nodes are numbered in first-seen order of
// their communities; a counting sort groups the old nodes by new node, and
// each super-node's row sums its members' rows through the accumulator.
func (s *louvainState) aggregate() ([]int32, *louvainState) {
	nodeMap := make([]int32, s.n)
	newID := make([]int32, s.n) // community -> new node, -1 before first seen
	for i := range newID {
		newID[i] = -1
	}
	nn := int32(0)
	for i := 0; i < s.n; i++ {
		if s.size[i] == 0 {
			nodeMap[i] = -1
			continue
		}
		c := s.comm[i]
		if newID[c] < 0 {
			newID[c] = nn
			nn++
		}
		nodeMap[i] = newID[c]
	}
	start := make([]int, nn+1)
	for _, ni := range nodeMap {
		if ni >= 0 {
			start[ni+1]++
		}
	}
	for ni := int32(0); ni < nn; ni++ {
		start[ni+1] += start[ni]
	}
	members := make([]int32, start[nn])
	fill := slices.Clone(start[:nn])
	for i, ni := range nodeMap {
		if ni >= 0 {
			members[fill[ni]] = int32(i)
			fill[ni]++
		}
	}

	next := &louvainState{
		mover: mover{total2: s.total2, acc: s.acc},
		n:     int(nn),
		off:   make([]int, nn+1),
		deg:   make([]float64, nn),
		size:  make([]int, nn),
	}
	for ni := int32(0); ni < nn; ni++ {
		for _, i := range members[start[ni]:start[ni+1]] {
			next.size[ni] += s.size[i]
			next.deg[ni] += s.deg[i]
			for k := s.off[i]; k < s.off[i+1]; k++ {
				// Intra-super-node edges become a self-loop, which deg
				// already carries.
				if nu := nodeMap[s.nbr[k]]; nu != ni {
					s.acc.add(nu, s.wt[k])
				}
			}
		}
		next.nbr, next.wt = s.acc.flush(next.nbr, next.wt)
		next.off[ni+1] = len(next.nbr)
	}
	return nodeMap, next
}

// Detect runs size-capped Louvain on g and returns the partition with dense
// community ids.
func Detect(g *graph.Graph, cfg Config) *Partition {
	s := projectGraph(g)
	// vertexNode[v] tracks which super-node v currently belongs to.
	vertexNode := make([]int32, g.Cap())
	for v := range vertexNode {
		if g.Alive(graph.VertexID(v)) {
			vertexNode[v] = int32(v)
		} else {
			vertexNode[v] = -1
		}
	}
	for level := 0; level < maxLevels; level++ {
		s.initSingletons()
		if !s.localMoves(cfg) {
			break
		}
		nodeMap, next := s.aggregate()
		for v := range vertexNode {
			if vertexNode[v] >= 0 {
				vertexNode[v] = nodeMap[vertexNode[v]]
			}
		}
		if next.n == s.n {
			s = next
			break
		}
		s = next
	}
	return canonicalize(g, vertexNode)
}

// canonicalize renumbers community labels densely in first-seen order.
// Labels are node ids of some level, so they lie below len(labels).
func canonicalize(g *graph.Graph, labels []int32) *Partition {
	p := &Partition{Comm: make([]int32, len(labels))}
	remap := make([]int32, len(labels))
	for i := range remap {
		remap[i] = NoCommunity
	}
	for v, l := range labels {
		if !g.Alive(graph.VertexID(v)) || l < 0 {
			p.Comm[v] = NoCommunity
			continue
		}
		if remap[l] == NoCommunity {
			remap[l] = int32(p.NumComms)
			p.NumComms++
		}
		p.Comm[v] = remap[l]
	}
	return p
}

// Modularity computes the (undirected, weighted) modularity of the partition
// on g: Q = Σ_c [ w_in(c)/m - (deg(c)/2m)^2 ].
func Modularity(g *graph.Graph, p *Partition) float64 {
	var m float64
	g.Edges(func(u, v graph.VertexID, w float64) { m += w })
	if m == 0 {
		return 0
	}
	k := 0
	for _, c := range p.Comm {
		k = max(k, int(c)+1)
	}
	win := make([]float64, k)
	deg := make([]float64, k)
	g.Edges(func(u, v graph.VertexID, w float64) {
		cu, cv := p.Comm[u], p.Comm[v]
		if cu >= 0 && cu == cv {
			win[cu] += w
		}
		if cu >= 0 {
			deg[cu] += w
		}
		if cv >= 0 {
			deg[cv] += w
		}
	})
	q := 0.0
	for c := range win {
		d := deg[c] / (2 * m)
		q += win[c]/m - d*d
	}
	return q
}
