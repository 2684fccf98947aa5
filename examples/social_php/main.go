// Social-network scenario: penalized hitting probability (PHP) from a seed
// user over an evolving follower graph — the proximity measure the paper
// evaluates on the Sinaweibo dataset. Social graphs are Layph's hardest
// regime (few, very large communities), and this example surfaces that: the
// skeleton is a larger fraction of the graph than in the web-graph example,
// and per-update gains are correspondingly smaller.
package main

import (
	"fmt"

	"layph"
)

func main() {
	// Social regime: large loose communities, strong hubs (celebrities).
	g := layph.GenerateCommunityGraph(layph.CommunityGraphConfig{
		Vertices:      12000,
		MeanCommunity: 700,
		MaxCommunity:  2500,
		IntraDegree:   4,
		InterDegree:   0.8,
		HubFraction:   0.02,
		HubDegree:     60,
		Weighted:      true, // tie strength
		Seed:          58,
	})
	const seedUser = 0
	fmt.Printf("follower graph: %d users, %d ties\n", g.NumVertices(), g.NumEdges())

	sys := layph.NewLayph(g, layph.PHP(seedUser, 0.8, 1e-6), layph.Config{})
	bg := g.Clone() // the baseline's own copy of the graph
	base := layph.NewIngress(bg, layph.PHP(seedUser, 0.8, 1e-6), 0)

	gen := layph.NewBatchGenerator(3)
	fmt.Println("wave  layph-time  ingress-time  proximity(user 77)")
	for wave := 1; wave <= 4; wave++ {
		// A wave of follows/unfollows.
		b := gen.EdgeBatch(g, 500, true)
		stL := sys.Update(layph.ApplyBatch(g, b))
		stI := base.Update(layph.ApplyBatch(bg, b))

		fmt.Printf("%4d  %10v  %12v  %.6f\n",
			wave, stL.Duration.Round(1000), stI.Duration.Round(1000), sys.States()[77])
	}

	want := layph.Run(g, layph.PHP(seedUser, 0.8, 1e-6), 0)
	if !layph.StatesClose(sys.States()[:g.Cap()], want, 1e-4) {
		panic("incremental proximity diverged")
	}
	fmt.Println("final proximities verified against full recomputation ✓")
}
