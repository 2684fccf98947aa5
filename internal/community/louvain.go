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
package community

import (
	"sort"

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
// Under incremental adjustment (AdjustDetailed) ids are stable, so emptied
// communities keep their slot; the gap between LiveComms and NumComms is
// the dead-id bloat that Compact (or a full re-layer) reclaims.
func (p *Partition) LiveComms() int {
	live := 0
	for _, n := range p.Sizes() {
		if n > 0 {
			live++
		}
	}
	return live
}

// Compact densely renumbers community ids in ascending old-id order,
// dropping ids that no longer have members, and returns the old→new
// mapping (dropped ids map to NoCommunity). This is the id-reclamation
// point of the id-stability contract: ids are stable between re-layers,
// and a full re-layer (or an explicit Compact) is the only place they are
// recycled — callers holding per-community state must renumber through
// the returned mapping.
func (p *Partition) Compact() []int32 {
	remap := make([]int32, p.NumComms)
	next := int32(0)
	for c, n := range p.Sizes() {
		if n > 0 {
			remap[c] = next
			next++
		} else {
			remap[c] = NoCommunity
		}
	}
	for v, c := range p.Comm {
		if c >= 0 {
			p.Comm[v] = remap[c]
		}
	}
	p.NumComms = int(next)
	return remap
}

// louvainState is the weighted undirected projection Louvain operates on.
type louvainState struct {
	n      int
	adj    []map[int32]float64 // undirected weighted adjacency (self-loops allowed)
	deg    []float64           // weighted degree incl. 2*self-loop
	size   []int               // vertices of the original graph folded into this node
	comm   []int32
	ctot   []float64 // total degree per community
	csize  []int     // original-vertex count per community
	total2 float64   // 2m (total degree)
}

func projectGraph(g *graph.Graph) *louvainState {
	s := &louvainState{n: g.Cap()}
	s.adj = make([]map[int32]float64, s.n)
	s.deg = make([]float64, s.n)
	s.size = make([]int, s.n)
	for i := 0; i < s.n; i++ {
		s.adj[i] = make(map[int32]float64)
	}
	g.Vertices(func(v graph.VertexID) { s.size[v] = 1 })
	g.Edges(func(u, v graph.VertexID, w float64) {
		if u == v {
			s.adj[u][int32(u)] += w
			s.deg[u] += 2 * w
			s.total2 += 2 * w
			return
		}
		s.adj[u][int32(v)] += w
		s.adj[v][int32(u)] += w
		s.deg[u] += w
		s.deg[v] += w
		s.total2 += 2 * w
	})
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

// moveVertex relocates v to the neighbor community with the best positive
// modularity gain, respecting the size cap. Returns whether v moved.
func (s *louvainState) moveVertex(v int32, cfg Config) bool {
	cur := s.comm[v]
	// Weights from v to each neighboring community.
	wTo := map[int32]float64{}
	for u, w := range s.adj[v] {
		if u == v {
			continue
		}
		wTo[s.comm[u]] += w
	}
	// Detach v.
	s.ctot[cur] -= s.deg[v]
	s.csize[cur] -= s.size[v]

	best := cur
	bestGain := 0.0
	// Gain of joining community c: w(v,c)/m - deg(v)*ctot(c)/(2m^2); constant
	// factors dropped since we only compare.
	m2 := s.total2
	baseGain := wTo[cur] - s.deg[v]*s.ctot[cur]/m2
	// Ascending-id candidate scan with a strict improvement test: ties within
	// minGain resolve to the lowest community id, independent of map order.
	cands := make([]int32, 0, len(wTo))
	for c := range wTo {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, c := range cands {
		if c == cur {
			continue
		}
		if cfg.MaxSize > 0 && s.csize[c]+s.size[v] > cfg.MaxSize {
			continue
		}
		gain := (wTo[c] - s.deg[v]*s.ctot[c]/m2) - baseGain
		if gain > bestGain+minGain {
			bestGain = gain
			best = c
		}
	}
	s.ctot[best] += s.deg[v]
	s.csize[best] += s.size[v]
	s.comm[v] = best
	return best != cur
}

// aggregate folds communities into super-nodes and returns the mapping from
// old node to new node id.
func (s *louvainState) aggregate() ([]int32, *louvainState) {
	remap := make(map[int32]int32)
	for i := 0; i < s.n; i++ {
		if s.size[i] == 0 {
			continue
		}
		c := s.comm[i]
		if _, ok := remap[c]; !ok {
			remap[c] = int32(len(remap))
		}
	}
	next := &louvainState{n: len(remap)}
	next.adj = make([]map[int32]float64, next.n)
	next.deg = make([]float64, next.n)
	next.size = make([]int, next.n)
	for i := range next.adj {
		next.adj[i] = make(map[int32]float64)
	}
	next.total2 = s.total2
	nodeMap := make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		if s.size[i] == 0 {
			nodeMap[i] = -1
			continue
		}
		nodeMap[i] = remap[s.comm[i]]
	}
	for i := 0; i < s.n; i++ {
		if s.size[i] == 0 {
			continue
		}
		ni := nodeMap[i]
		next.size[ni] += s.size[i]
		for u, w := range s.adj[i] {
			if s.size[u] == 0 {
				continue
			}
			nu := nodeMap[u]
			if int32(i) == u {
				next.adj[ni][ni] += w
				next.deg[ni] += 2 * w
				continue
			}
			// Each undirected edge appears in both adjacency maps; process
			// each pair once (i < u); intra-super-node pairs fold into a
			// self-loop.
			if int32(i) >= u {
				continue
			}
			if ni == nu {
				next.adj[ni][ni] += w
				next.deg[ni] += 2 * w
			} else {
				next.adj[ni][nu] += w
				next.adj[nu][ni] += w
				next.deg[ni] += w
				next.deg[nu] += w
			}
		}
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
func canonicalize(g *graph.Graph, labels []int32) *Partition {
	p := &Partition{Comm: make([]int32, len(labels))}
	remap := make(map[int32]int32)
	for v := range labels {
		if !g.Alive(graph.VertexID(v)) || labels[v] < 0 {
			p.Comm[v] = NoCommunity
			continue
		}
		id, ok := remap[labels[v]]
		if !ok {
			id = int32(len(remap))
			remap[labels[v]] = id
		}
		p.Comm[v] = id
	}
	p.NumComms = len(remap)
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
	win := make(map[int32]float64)
	deg := make(map[int32]float64)
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
	for c, w := range win {
		q += w / m
		d := deg[c] / (2 * m)
		q -= d * d
	}
	for c, d := range deg {
		if _, ok := win[c]; !ok {
			q -= (d / (2 * m)) * (d / (2 * m))
		}
	}
	return q
}

// SortedBySize returns community ids in decreasing vertex-count order.
func (p *Partition) SortedBySize() []int32 {
	sizes := p.Sizes()
	ids := make([]int32, p.NumComms)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool { return sizes[ids[a]] > sizes[ids[b]] })
	return ids
}
