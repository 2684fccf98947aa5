// Package gen provides deterministic synthetic graph generators used as
// stand-ins for the paper's datasets (UK-2005, IT-2004, SK-2005, Sinaweibo).
//
// The generators are seeded and reproducible: the same parameters and seed
// always produce the identical graph, which makes the benchmarks and the
// `layph-bench` runs (README's `layph-bench` section) repeatable.
//
// The structural property that matters for Layph is the community structure:
// web graphs consist of many small dense subgraphs (sites) with sparse
// cross-links, while social networks have fewer, much larger and less clearly
// separated communities. CommunityGraph models both regimes directly.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"layph/internal/graph"
)

// CommunityConfig parameterizes CommunityGraph.
type CommunityConfig struct {
	Vertices int // total vertex count
	// MeanCommunity is the expected community size; sizes are drawn from a
	// truncated power law so a few communities are much larger than the mean.
	MeanCommunity int
	// MaxCommunity caps community size (0 = 4 * MeanCommunity).
	MaxCommunity int
	// IntraDegree is the expected number of intra-community out-edges per
	// vertex; InterDegree the expected cross-community out-edges.
	IntraDegree float64
	InterDegree float64
	// HubFraction of vertices get an extra power-law fan-out across the whole
	// graph, modelling web hubs / social celebrities.
	HubFraction float64
	// HubDegree is the mean extra degree of a hub.
	HubDegree float64
	// Weighted assigns uniform random weights in [1,10); otherwise all
	// weights are 1.
	Weighted bool
	Seed     int64
}

// CommunityGraph generates a directed graph with planted dense communities.
// It also returns the planted community assignment (vertex -> community id),
// which tests use as ground truth for the community-detection substrate.
func CommunityGraph(cfg CommunityConfig) (*graph.Graph, []int) {
	if cfg.Vertices <= 0 {
		panic("gen: Vertices must be positive")
	}
	if cfg.MeanCommunity <= 1 {
		cfg.MeanCommunity = 16
	}
	if cfg.MaxCommunity == 0 {
		cfg.MaxCommunity = 4 * cfg.MeanCommunity
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New(cfg.Vertices)
	comm := make([]int, cfg.Vertices)

	// Carve the vertex range into contiguous communities with power-law sizes.
	type span struct{ lo, hi int } // [lo,hi)
	var spans []span
	for at, id := 0, 0; at < cfg.Vertices; id++ {
		size := powerLawSize(rng, cfg.MeanCommunity, cfg.MaxCommunity)
		if at+size > cfg.Vertices {
			size = cfg.Vertices - at
		}
		for i := at; i < at+size; i++ {
			comm[i] = id
		}
		spans = append(spans, span{at, at + size})
		at += size
	}

	weight := func() float64 {
		if cfg.Weighted {
			return 1 + 9*rng.Float64()
		}
		return 1
	}
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if _, exists := g.HasEdge(graph.VertexID(u), graph.VertexID(v)); exists {
			return
		}
		g.AddEdge(graph.VertexID(u), graph.VertexID(v), weight())
	}

	for _, sp := range spans {
		size := sp.hi - sp.lo
		if size == 1 {
			continue
		}
		// A ring guarantees weak connectivity inside the community, then
		// random chords densify it up to the target intra degree.
		for i := sp.lo; i < sp.hi; i++ {
			addEdge(i, sp.lo+(i-sp.lo+1)%size)
		}
		extra := int(cfg.IntraDegree*float64(size)) - size
		for e := 0; e < extra; e++ {
			addEdge(sp.lo+rng.Intn(size), sp.lo+rng.Intn(size))
		}
	}

	// Sparse cross-community edges.
	inter := int(cfg.InterDegree * float64(cfg.Vertices))
	for e := 0; e < inter; e++ {
		u := rng.Intn(cfg.Vertices)
		v := rng.Intn(cfg.Vertices)
		if comm[u] == comm[v] {
			continue
		}
		addEdge(u, v)
	}

	// Hubs: high-degree vertices spraying edges across many communities; these
	// are the vertices the replication optimization targets.
	hubs := int(cfg.HubFraction * float64(cfg.Vertices))
	for h := 0; h < hubs; h++ {
		u := rng.Intn(cfg.Vertices)
		fan := 1 + int(rng.ExpFloat64()*cfg.HubDegree)
		for k := 0; k < fan; k++ {
			v := rng.Intn(cfg.Vertices)
			if rng.Intn(2) == 0 {
				addEdge(u, v)
			} else {
				addEdge(v, u)
			}
		}
	}
	g.SortAdjacency()
	return g, comm
}

func powerLawSize(rng *rand.Rand, mean, max int) int {
	// Pareto with alpha tuned so the mean is roughly `mean`; truncated at max.
	alpha := 2.5
	xm := float64(mean) * (alpha - 2) / (alpha - 1) * 2
	if xm < 2 {
		xm = 2
	}
	s := xm / math.Pow(rng.Float64(), 1/alpha)
	if s > float64(max) {
		s = float64(max)
	}
	if s < 2 {
		s = 2
	}
	return int(s)
}

// Preset names one of the scaled dataset stand-ins from Table I.
type Preset string

// Presets mirror Table I of the paper at laptop scale. UK/IT/SK are web-graph
// regimes (many small dense communities — Layph's best case); WB is the
// social-network regime with much larger communities (the paper's noted
// weakest case for Layph).
const (
	PresetUK Preset = "UK" // UK-2005 stand-in
	PresetIT Preset = "IT" // IT-2004 stand-in
	PresetSK Preset = "SK" // SK-2005 stand-in
	PresetWB Preset = "WB" // Sinaweibo stand-in
)

// AllPresets lists the presets in the paper's Table I order.
var AllPresets = []Preset{PresetUK, PresetIT, PresetSK, PresetWB}

// PresetConfig returns the generator configuration backing a preset at the
// given scale factor (1.0 = the default bench scale; tests use smaller).
func PresetConfig(p Preset, scale float64) CommunityConfig {
	base := func(v, mean int, intra, inter, hubFrac, hubDeg float64, seed int64) CommunityConfig {
		n := int(float64(v) * scale)
		if n < 64 {
			n = 64
		}
		return CommunityConfig{
			Vertices:      n,
			MeanCommunity: mean,
			IntraDegree:   intra,
			InterDegree:   inter,
			HubFraction:   hubFrac,
			HubDegree:     hubDeg,
			Weighted:      true,
			Seed:          seed,
		}
	}
	switch p {
	case PresetUK:
		return base(60000, 40, 10, 0.25, 0.004, 30, 2005)
	case PresetIT:
		return base(64000, 48, 11, 0.25, 0.004, 32, 2004)
	case PresetSK:
		return base(72000, 56, 14, 0.22, 0.005, 36, 1005)
	case PresetWB:
		// Social network: far larger, looser communities, more hubs, lower
		// intra density relative to boundary size.
		c := base(48000, 800, 4.0, 0.9, 0.02, 60, 58)
		c.MaxCommunity = 4000
		return c
	default:
		panic(fmt.Sprintf("gen: unknown preset %q", p))
	}
}

// Build generates the preset graph.
func Build(p Preset, scale float64) *graph.Graph {
	g, _ := CommunityGraph(PresetConfig(p, scale))
	return g
}
