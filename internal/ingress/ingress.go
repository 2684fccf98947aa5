// Package ingress reimplements the algorithmic core of Ingress (Gong et al.,
// VLDB 2021), the automated-incrementalization engine Layph is built on.
// Ingress selects a memoization policy from the algorithm's algebraic
// properties:
//
//   - memoization-free engine for non-idempotent (sum-semiring) algorithms
//     such as PageRank and PHP: only the converged states are memoized;
//     revision messages are exact inverse deltas;
//   - memoization-path engine for idempotent (min-semiring) algorithms such
//     as SSSP and BFS: converged states plus the dependency (critical-path)
//     tree are memoized; deletions reset the invalidated subtree with ⊥
//     cancellations and recompute it from intact offers.
//
// Both schemes are inc.Kernel's; Ingress adds no policy of its own.
package ingress

import (
	"layph/internal/algo"
	"layph/internal/engine"
	"layph/internal/graph"
	"layph/internal/inc"
)

// Engine is an Ingress instance bound to one graph and one algorithm. The
// caller mutates the graph via delta.Apply between Update calls.
type Engine struct {
	*inc.Kernel
}

// New builds an engine over g and runs the batch computation to convergence,
// memoizing whatever the selected scheme needs.
func New(g *graph.Graph, a algo.Algorithm, opt engine.Options) *Engine {
	return &Engine{inc.NewKernel(g, a, opt)}
}

// Name returns "ingress".
func (e *Engine) Name() string { return "ingress" }
