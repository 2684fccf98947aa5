// Package enginetest provides the shared correctness harness for every
// incremental engine in this repository: after each random update batch, the
// engine's states must match a from-scratch batch restart on the updated
// graph (exactly for the tropical semiring, within tolerance for the real
// one). This is the defining equation of incremental computation,
// IA(A(G), ΔG) = A(G ⊕ ΔG) — Equation (4) of the paper.
package enginetest

import (
	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Factory constructs an incremental engine bound to g and a. The factory is
// expected to run the initial batch computation.
type Factory func(g *graph.Graph, a algo.Algorithm) inc.System

// AlgoMaker builds an algorithm instance; source-rooted algorithms should
// root at vertex 0 (the harness never deletes vertex 0).
type AlgoMaker func() algo.Algorithm

func dropVertexZeroDeletes(b delta.Batch) delta.Batch {
	out := b[:0]
	for _, u := range b {
		if u.Kind == delta.DelVertex && u.U == 0 {
			continue
		}
		out = append(out, u)
	}
	return out
}

func statesCloseLive(g *graph.Graph, got, want []float64, atol float64) bool {
	ok := true
	g.Vertices(func(v graph.VertexID) {
		if !ok {
			return
		}
		if !algo.StatesClose(got[v:v+1], want[v:v+1], atol) {
			ok = false
		}
	})
	return ok
}

func maxDiffLive(g *graph.Graph, got, want []float64) float64 {
	var worst float64
	g.Vertices(func(v graph.VertexID) {
		if d := algo.MaxStateDiff(got[v:v+1], want[v:v+1]); d > worst {
			worst = d
		}
	})
	return worst
}

// AllAlgorithms returns the four paper workloads rooted at vertex 0 where
// applicable, plus connected components, keyed by name.
func AllAlgorithms() map[string]AlgoMaker {
	return map[string]AlgoMaker{
		"sssp":     func() algo.Algorithm { return algo.NewSSSP(0) },
		"bfs":      func() algo.Algorithm { return algo.NewBFS(0) },
		"cc":       func() algo.Algorithm { return algo.NewCC() },
		"pagerank": func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
		"php":      func() algo.Algorithm { return algo.NewPHP(0, 0.8, 1e-10) },
	}
}

// MinAlgorithms returns the idempotent workloads (KickStarter and RisGraph
// only support these, as in the paper; CC rides the same machinery).
func MinAlgorithms() map[string]AlgoMaker {
	all := AllAlgorithms()
	return map[string]AlgoMaker{"sssp": all["sssp"], "bfs": all["bfs"], "cc": all["cc"]}
}

// SumAlgorithms returns the non-idempotent workloads (GraphBolt and DZiG
// only support these, as in the paper).
func SumAlgorithms() map[string]AlgoMaker {
	all := AllAlgorithms()
	return map[string]AlgoMaker{"pagerank": all["pagerank"], "php": all["php"]}
}
