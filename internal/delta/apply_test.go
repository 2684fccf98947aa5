package delta

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"layph/internal/gen"
	"layph/internal/graph"
)

// referenceApply is the direct statement of Apply's netting, the oracle of
// TestApplyMatchesReference and FuzzApply: it keeps each pair's and each
// vertex's state at first touch in a map (read with HasEdge and Alive) and
// compares it with the graph after the batch.
func referenceApply(g *graph.Graph, b Batch) *Applied {
	a := &Applied{}
	beforeE := make(map[uint64]edgeBefore)
	beforeV := make(map[graph.VertexID]bool)
	touchEdge := func(u, v graph.VertexID) {
		k := edgeKey(u, v)
		if _, seen := beforeE[k]; !seen {
			w, ok := g.HasEdge(u, v)
			beforeE[k] = edgeBefore{w: w, exists: ok}
		}
	}
	touchVertex := func(v graph.VertexID) {
		if _, seen := beforeV[v]; !seen {
			beforeV[v] = g.Alive(v)
		}
	}

	for _, u := range b {
		switch u.Kind {
		case AddEdge:
			if !g.Alive(u.U) || !g.Alive(u.V) || u.U == u.V {
				continue
			}
			touchEdge(u.U, u.V)
			prev, replaced := g.AddEdge(u.U, u.V, u.W)
			if replaced {
				if math.Float64bits(prev) == math.Float64bits(u.W) {
					continue
				}
				a.log = append(a.log, logRec{op: opSetEdge, u: u.U, v: u.V, w: u.W, prevW: prev})
			} else {
				a.log = append(a.log, logRec{op: opAddEdge, u: u.U, v: u.V, w: u.W})
			}
		case DelEdge:
			touchEdge(u.U, u.V)
			if w, ok := g.DeleteEdge(u.U, u.V); ok {
				a.log = append(a.log, logRec{op: opDelEdge, u: u.U, v: u.V, w: w})
			}
		case AddVertex:
			if int(u.U) < g.Cap() {
				if g.Alive(u.U) {
					continue
				}
				touchVertex(u.U)
				g.ReviveVertex(u.U)
				a.log = append(a.log, logRec{op: opRevive, u: u.U})
			} else {
				for int(u.U) >= g.Cap() {
					id := g.AddVertex()
					beforeV[id] = false
					a.log = append(a.log, logRec{op: opNewVertex, u: id})
				}
			}
		case DelVertex:
			if !g.Alive(u.U) {
				continue
			}
			touchVertex(u.U)
			removed := g.DeleteVertex(u.U)
			for _, d := range removed {
				// Edges created earlier in the batch are already seen, so
				// an unseen pair here predates the batch.
				k := edgeKey(d.From, d.To)
				if _, seen := beforeE[k]; !seen {
					beforeE[k] = edgeBefore{w: d.W, exists: true}
				}
			}
			a.log = append(a.log, logRec{op: opDelVertex, u: u.U, edges: removed})
		}
	}

	for _, k := range slices.Sorted(maps.Keys(beforeE)) {
		b0 := beforeE[k]
		u := graph.VertexID(k >> 32)
		v := graph.VertexID(k & 0xffffffff)
		w1, exists1 := g.HasEdge(u, v)
		switch {
		case !b0.exists && exists1:
			a.AddedEdges = append(a.AddedEdges, graph.DeletedEdge{From: u, To: v, W: w1})
		case b0.exists && !exists1:
			a.RemovedEdges = append(a.RemovedEdges, graph.DeletedEdge{From: u, To: v, W: b0.w})
		case b0.exists && exists1 && b0.w != w1:
			a.RemovedEdges = append(a.RemovedEdges, graph.DeletedEdge{From: u, To: v, W: b0.w})
			a.AddedEdges = append(a.AddedEdges, graph.DeletedEdge{From: u, To: v, W: w1})
		}
	}
	for _, v := range slices.Sorted(maps.Keys(beforeV)) {
		was, is := beforeV[v], g.Alive(v)
		switch {
		case !was && is:
			a.AddedVertices = append(a.AddedVertices, v)
		case was && !is:
			a.RemovedVertices = append(a.RemovedVertices, v)
		}
	}
	return a
}

type edgeBefore struct {
	w      float64
	exists bool
}

// caseWeights are the weights decodeCase draws from: repeats make
// same-weight re-adds, and 0 next to -0 makes a re-add that compares equal
// but changes the stored bits.
var caseWeights = []float64{1, 2, 0, math.Copysign(0, -1), 3.5}

// decodeCase turns bytes into a small pre-batch graph and a batch on it.
// data[0] picks 1..8 vertices; each following 3-byte group (op, u, v) is
// one update with kind op&3 and weight caseWeights[op>>3 % 5] on ids
// below Cap()+3, so some name dead or not yet existing vertices. Groups with
// op&4 set build the pre-batch graph instead (self-loops allowed, which
// Apply itself never adds) and are not part of the batch.
func decodeCase(data []byte) (*graph.Graph, Batch) {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 8)
		data = data[1:]
	}
	g := graph.New(n)
	var b Batch
	for ; len(data) >= 3; data = data[3:] {
		op := data[0]
		idSpace := byte(n + 3)
		u := Update{
			Kind: Kind(op & 3),
			U:    graph.VertexID(data[1] % idSpace),
			V:    graph.VertexID(data[2] % idSpace),
			W:    caseWeights[int(op>>3)%len(caseWeights)],
		}
		if op&4 == 0 {
			b = append(b, u)
			continue
		}
		switch u.Kind {
		case AddEdge:
			if g.Alive(u.U) && g.Alive(u.V) {
				g.AddEdge(u.U, u.V, u.W)
			}
		case DelEdge:
			g.DeleteEdge(u.U, u.V)
		case AddVertex:
			if int(u.U) < g.Cap() {
				g.ReviveVertex(u.U)
			}
		case DelVertex:
			g.DeleteVertex(u.U)
		}
	}
	return g, b
}

// checkApply applies b to g with Apply and to a clone with referenceApply,
// requires the same Applied (net slices and undo log, compared with
// reflect.DeepEqual and by their %+v text so the sign of a zero weight
// counts) and the same graph, then undoes the batch and requires g's
// pre-batch edges and liveness back.
func checkApply(t *testing.T, g *graph.Graph, b Batch) {
	t.Helper()
	orig, ref := g.Clone(), g.Clone()
	want := referenceApply(ref, b)
	got := Apply(g, b)
	if !reflect.DeepEqual(got, want) || fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", *want) {
		t.Fatalf("batch %v:\nApply     %+v\nreference %+v", b, *got, *want)
	}
	if err := sameGraph(g, ref); err != nil {
		t.Fatalf("batch %v: graph after Apply differs from the reference's: %v", b, err)
	}
	Undo(g, got)
	if err := g.CheckConsistency(); err != nil {
		t.Fatalf("batch %v: after Undo: %v", b, err)
	}
	if g.NumVertices() != orig.NumVertices() || g.NumEdges() != orig.NumEdges() {
		t.Fatalf("batch %v: Undo left V=%d E=%d, want V=%d E=%d", b, g.NumVertices(), g.NumEdges(), orig.NumVertices(), orig.NumEdges())
	}
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(graph.VertexID(v)) != orig.Alive(graph.VertexID(v)) {
			t.Fatalf("batch %v: Undo left vertex %d alive=%v", b, v, g.Alive(graph.VertexID(v)))
		}
	}
	// By bits: Undo restores the sign of a zero weight.
	orig.Edges(func(u, v graph.VertexID, w float64) {
		if got, ok := g.HasEdge(u, v); !ok || math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("batch %v: Undo left edge (%d,%d) = %v,%v, want %v", b, u, v, got, ok, w)
		}
	})
}

// sameGraph compares two graphs row by row, adjacency order included.
func sameGraph(g, h *graph.Graph) error {
	if g.Cap() != h.Cap() || g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return fmt.Errorf("sizes cap/V/E %d/%d/%d vs %d/%d/%d", g.Cap(), g.NumVertices(), g.NumEdges(), h.Cap(), h.NumVertices(), h.NumEdges())
	}
	for v := range graph.VertexID(g.Cap()) {
		if g.Alive(v) != h.Alive(v) || !slices.Equal(g.Out(v), h.Out(v)) || !slices.Equal(g.In(v), h.In(v)) {
			return fmt.Errorf("vertex %d differs", v)
		}
	}
	return nil
}

// TestApplyMatchesReference differentially tests Apply against
// referenceApply on 2 000 seeded random cases from decodeCase, and
// requires that the cases, taken together, exercise every shape the
// netting must get right.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var churned, selfLoop, deadEndpoint, pastCap, delReAdd bool
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+3*rng.Intn(40))
		rng.Read(data)
		g, b := decodeCase(data)
		perPair := map[uint64]int{}
		deleted := map[graph.VertexID]bool{}
		for _, u := range b {
			switch u.Kind {
			case AddEdge, DelEdge:
				perPair[edgeKey(u.U, u.V)]++
				selfLoop = selfLoop || (u.Kind == AddEdge && u.U == u.V)
				deadEndpoint = deadEndpoint || !g.Alive(u.U) || !g.Alive(u.V)
				pastCap = pastCap || int(max(u.U, u.V)) >= g.Cap()
			case AddVertex:
				pastCap = pastCap || int(u.U) >= g.Cap()
				delReAdd = delReAdd || deleted[u.U]
			case DelVertex:
				deleted[u.U] = g.Alive(u.U)
			}
		}
		for _, n := range perPair {
			churned = churned || n >= 4
		}
		checkApply(t, g, b)
	}
	if !churned || !selfLoop || !deadEndpoint || !pastCap || !delReAdd {
		t.Fatalf("cases missed a shape: 4+ updates on one pair %v, self-loop %v, dead endpoint %v, id past Cap %v, vertex deleted and re-added %v",
			churned, selfLoop, deadEndpoint, pastCap, delReAdd)
	}
}

// FuzzApply runs checkApply on decodeCase's reading of arbitrary bytes.
func FuzzApply(f *testing.F) {
	f.Add([]byte{})
	// Pair (0,1) on 3 vertices: pre-batch edge of weight 1, then add w=2,
	// delete, add w=1, add w=3.5 in one batch.
	f.Add([]byte{2, 4, 0, 1, 8, 0, 1, 1, 0, 1, 0, 0, 1, 32, 0, 1})
	// On 2 vertices: a self-loop, an edge to id 4 past Cap, vertices 2–4
	// created and (0,4) added, vertex 1 deleted, an edge to it, vertex 1
	// re-added and (0,1) added, vertex 4 deleted with its new in-edge.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 4, 2, 4, 0, 0, 0, 4, 3, 1, 0, 0, 0, 1, 2, 1, 0, 0, 0, 1, 3, 4, 0})
	// Pre-batch 0-weight edge re-added as -0, then deleted.
	f.Add([]byte{2, 20, 0, 1, 24, 0, 1, 1, 0, 1})
	// Pre-batch self-loop and out-edge removed with their vertex.
	f.Add([]byte{3, 4, 2, 2, 4, 2, 0, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, b := decodeCase(data)
		checkApply(t, g, b)
	})
}

// BenchmarkApply applies 500-update local batches to the UK preset at
// scale 1, drawn like the repository benchmark's local feed: 8 planted
// communities of 16–48 vertices per batch, adds of absent pairs and deletes
// of live intra-community edges, no pair twice. Each batch is undone
// outside the timer, so every Apply sees the same graph.
func BenchmarkApply(b *testing.B) {
	g, comm := gen.CommunityGraph(gen.PresetConfig(gen.PresetUK, 1))
	byComm := map[int][]graph.VertexID{}
	for v, c := range comm {
		byComm[c] = append(byComm[c], graph.VertexID(v))
	}
	var members [][]graph.VertexID
	for _, c := range slices.Sorted(maps.Keys(byComm)) {
		if n := len(byComm[c]); n >= 16 && n <= 48 {
			members = append(members, byComm[c])
		}
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([]Batch, 32)
	for i := range batches {
		batches[i] = localBatch(rng, g, comm, members, 500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Apply(g, batches[i%len(batches)])
		b.StopTimer()
		Undo(g, a)
		b.StartTimer()
	}
}

// localBatch draws n updates, alternately adds and deletes, from 8 of the
// given communities.
func localBatch(rng *rand.Rand, g *graph.Graph, comm []int, members [][]graph.VertexID, n int) Batch {
	chosen := make([][]graph.VertexID, 8)
	for i := range chosen {
		chosen[i] = members[rng.Intn(len(members))]
	}
	used := map[uint64]bool{}
	b := make(Batch, 0, n)
	for len(b) < n {
		vs := chosen[rng.Intn(len(chosen))]
		u := vs[rng.Intn(len(vs))]
		upd := Update{Kind: DelEdge, U: u}
		if len(b)%2 == 0 {
			upd = Update{Kind: AddEdge, U: u, V: vs[rng.Intn(len(vs))], W: 1 + 9*rng.Float64()}
			if _, exists := g.HasEdge(u, upd.V); u == upd.V || exists {
				continue
			}
		} else {
			outs := g.Out(u)
			if len(outs) == 0 {
				continue
			}
			if upd.V = outs[rng.Intn(len(outs))].To; comm[upd.V] != comm[u] {
				continue
			}
		}
		if k := edgeKey(upd.U, upd.V); !used[k] {
			used[k] = true
			b = append(b, upd)
		}
	}
	return b
}

// TestSortByKeyStable checks the radix sort on keys that vary in every
// byte, which graph ids small enough for a test graph never do: it must
// order by key and keep equal keys in input order.
func TestSortByKeyStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 100, 5000} {
		ev := make([]edgeEvent, n)
		for i := range ev {
			// Few distinct keys, so runs of equal keys are common.
			ev[i] = edgeEvent{key: uint64(rng.Intn(64)) * 0x0101010101010101 >> uint(rng.Intn(2)*8), wasW: float64(i)}
		}
		want := slices.Clone(ev)
		slices.SortStableFunc(want, func(x, y edgeEvent) int { return cmp.Compare(x.key, y.key) })
		if got := sortByKey(ev); !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortByKey is not a stable sort by key", n)
		}
	}
}
