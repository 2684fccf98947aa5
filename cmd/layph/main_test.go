package main

import (
	"strings"
	"testing"

	"layph/internal/bench"
	"layph/internal/gen"
)

func TestValidateRejectsBadFlags(t *testing.T) {
	ok := engineFlags{preset: "UK", algoName: "sssp", system: "layph"}
	for name, tc := range map[string]struct {
		edit func(*engineFlags)
		want string // substring of the error; "" = accepted
	}{
		"defaults":                {func(*engineFlags) {}, ""},
		"unknown system":          {func(ef *engineFlags) { ef.system = "bogus" }, "want one of: dzig, graphbolt, ingress, kickstarter, layph, layph-norepl, restart, risgraph"},
		"unknown algo":            {func(ef *engineFlags) { ef.algoName = "nope" }, "want one of: bfs, cc, pagerank, php, sssp"},
		"unknown preset":          {func(ef *engineFlags) { ef.preset = "XX" }, "want one of: UK, IT, SK, WB"},
		"preset ignored by file":  {func(ef *engineFlags) { ef.preset, ef.graphPath = "XX", "web.el" }, ""},
		"min-only system":         {func(ef *engineFlags) { ef.system, ef.algoName = "kickstarter", "pagerank" }, "does not run sum-scheme"},
		"sum-only system":         {func(ef *engineFlags) { ef.system, ef.algoName = "dzig", "cc" }, "does not run min-scheme"},
		"relayer on layph":        {func(ef *engineFlags) { ef.relayer = true }, ""},
		"relayer on layph-norepl": {func(ef *engineFlags) { ef.relayer, ef.system = true, "layph-norepl" }, ""},
		"relayer off layph":       {func(ef *engineFlags) { ef.relayer, ef.system = true, "ingress" }, "-relayer requires -system layph or layph-norepl"},
	} {
		ef := ok
		tc.edit(&ef)
		err := ef.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestValidateMatchesEngines builds every system/algorithm pair on a tiny
// graph: validate must accept exactly the pairs that build without a panic.
func TestValidateMatchesEngines(t *testing.T) {
	for kind := range systems {
		for name := range algorithms {
			ef := engineFlags{preset: "UK", algoName: name, system: string(kind)}
			accepted := ef.validate() == nil
			built := func() (ok bool) {
				defer func() { ok = recover() == nil }()
				bench.Build(kind, gen.Build(gen.PresetUK, 0.001), makeAlgo(name, 0), 1)
				return
			}()
			if accepted != built {
				t.Errorf("-system %s -algo %s: validate accepts %v, engine builds %v", kind, name, accepted, built)
			}
		}
	}
}
