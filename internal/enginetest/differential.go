package enginetest

import (
	"testing"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

// NamedFactory pairs an engine constructor with the name reported on a
// divergence.
type NamedFactory struct {
	Name string
	New  Factory
}

// DifferentialConfig tunes RunDifferential.
type DifferentialConfig struct {
	// Seeds drive both graph generation and the update sequence.
	Seeds []int64
	// Vertices sizes the community graph every engine starts from.
	Vertices int
	// Batches is the number of update batches per seed; BatchSize the
	// number of edge updates per batch.
	Batches   int
	BatchSize int
	// AddVertices/DelVertices mix vertex churn into every batch (vertex 0,
	// the root of source-based algorithms, is never deleted).
	AddVertices, DelVertices int
	// Atol is the state comparison tolerance against the restart oracle.
	Atol float64
	// Weighted draws random edge weights (otherwise unit weights).
	Weighted bool
	// MigrationSize/MigrationRewire, when positive, mix a community-
	// migration churn sub-batch into every batch (delta.MigrationBatch):
	// a cluster of MigrationSize vertices is rewired with MigrationRewire
	// edges each into a different community neighborhood. This is the
	// drift schedule for re-layering: repeated migrations decay any frozen
	// layering, so it stresses the membership-migration path of a landing
	// re-detection against the restart oracle.
	MigrationSize, MigrationRewire int
}

// DefaultDifferentialConfig returns the full-size fuzz setup.
func DefaultDifferentialConfig() DifferentialConfig {
	return DifferentialConfig{
		Seeds:       []int64{11, 12},
		Vertices:    500,
		Batches:     5,
		BatchSize:   50,
		AddVertices: 3,
		DelVertices: 2,
		Atol:        1e-6,
		Weighted:    true,
	}
}

// EquivalenceConfig returns the single-engine setup of the per-engine
// packages: three seeds of four 60-update edge batches on 400 vertices
// (callers that want vertex churn set AddVertices and DelVertices). Under
// -short it keeps one seed and two batches, so the race-detector CI job
// stays within budget.
func EquivalenceConfig() DifferentialConfig {
	c := DifferentialConfig{
		Seeds:     []int64{1, 2, 3},
		Vertices:  400,
		Batches:   4,
		BatchSize: 60,
		Atol:      1e-6,
		Weighted:  true,
	}
	if testing.Short() {
		c.Seeds, c.Batches = c.Seeds[:1], 2
	}
	return c
}

// ShortDifferentialConfig returns the -short sizing: one seed, fewer and
// smaller batches, so the fuzzer fits the race-detector CI budget.
func ShortDifferentialConfig() DifferentialConfig {
	c := DefaultDifferentialConfig()
	c.Seeds = c.Seeds[:1]
	c.Batches = 3
	c.BatchSize = 30
	return c
}

// ChurnDifferentialConfig returns the vertex-churn stress schedule: heavy
// vertex churn in every batch, so deletes tombstone vertices whose frame
// rows and dependency subtrees are live, revivals reuse their ids, and
// Layph rewires its entry proxies around them.
func ChurnDifferentialConfig() DifferentialConfig {
	c := DefaultDifferentialConfig()
	c.Seeds = []int64{21}
	c.Batches = 6
	c.BatchSize = 40
	c.AddVertices = 5
	c.DelVertices = 4
	return c
}

// DriftDifferentialConfig returns the community-migration churn schedule:
// every batch moves a vertex cluster into a different community
// neighborhood on top of the usual edge/vertex churn, so frozen layerings
// drift until a landing re-detection migrates their memberships.
func DriftDifferentialConfig() DifferentialConfig {
	c := DefaultDifferentialConfig()
	c.Seeds = []int64{31}
	c.Batches = 8
	c.BatchSize = 30
	c.MigrationSize = 12
	c.MigrationRewire = 4
	return c
}

// RunDifferential is the equivalence harness of one engine and the
// cross-engine differential fuzzer of several: every engine is
// constructed on its own clone of the same seeded community graph, then
// driven through an identical random update sequence (edge add/del
// plus vertex add/del mixes), and after every batch each engine's states
// are checked against a from-scratch batch restart on the updated graph —
// and therefore, transitively, against each other. A parallel engine that
// diverges from its sequential twin, or any engine that drifts from the
// restart oracle, fails with the engine name, seed and batch index.
func RunDifferential(t *testing.T, engines []NamedFactory, mkAlgo AlgoMaker, cfg DifferentialConfig) {
	t.Helper()
	if len(engines) == 0 {
		t.Fatal("enginetest: no engines to differentiate")
	}
	for _, seed := range cfg.Seeds {
		driver, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices:      cfg.Vertices,
			MeanCommunity: 25,
			IntraDegree:   6,
			InterDegree:   0.4,
			HubFraction:   0.01,
			HubDegree:     10,
			Weighted:      cfg.Weighted,
			Seed:          seed,
		})
		sys := make([]inc.System, len(engines))
		graphs := make([]*graph.Graph, len(engines))
		for i, e := range engines {
			graphs[i] = driver.Clone()
			sys[i] = e.New(graphs[i], mkAlgo())
		}
		genr := delta.NewGenerator(seed*131 + 7)
		for b := 0; b < cfg.Batches; b++ {
			// The batch is generated against the driver's pre-batch state;
			// every engine graph is in that same state, so delta.Apply nets
			// out identically everywhere.
			batch := genr.EdgeBatch(driver, cfg.BatchSize, cfg.Weighted)
			if cfg.MigrationSize > 0 && cfg.MigrationRewire > 0 {
				batch = append(batch, genr.MigrationBatch(driver, cfg.MigrationSize, cfg.MigrationRewire, cfg.Weighted)...)
			}
			if cfg.AddVertices+cfg.DelVertices > 0 {
				batch = append(batch, genr.VertexBatch(driver, cfg.AddVertices, cfg.DelVertices, 2, cfg.Weighted)...)
				batch = dropVertexZeroDeletes(batch)
			}
			delta.Apply(driver, batch)
			want := engine.RunBatch(driver, mkAlgo(), engine.Options{})
			for i, e := range engines {
				applied := delta.Apply(graphs[i], batch)
				sys[i].Update(applied)
				got := sys[i].States()
				if len(got) < driver.Cap() {
					t.Fatalf("%s seed=%d batch=%d: state vector too short (%d < %d)",
						e.Name, seed, b, len(got), driver.Cap())
				}
				if !statesCloseLive(driver, got, want.X, cfg.Atol) {
					t.Fatalf("%s seed=%d batch=%d: diverged from restart, max diff %v",
						e.Name, seed, b, maxDiffLive(driver, got, want.X))
				}
			}
		}
	}
}
