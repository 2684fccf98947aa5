package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
)

// hashLayering is an FNV-64a over the layering and the memoized state: the
// flat ID space's size, every slot's role, subgraph and proxy host, its
// flat out-, flat in- and skeleton rows in order, and the bits of its
// state and parent.
func hashLayering(l *Layph) uint64 {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putRow := func(row []engine.WEdge) {
		put(uint64(len(row)))
		for _, e := range row {
			put(uint64(e.To))
			put(math.Float64bits(e.W))
		}
	}
	put(uint64(l.flatN()))
	for v := 0; v < l.flatN(); v++ {
		put(uint64(l.role[v]))
		put(uint64(uint32(l.subOf[v])))
		put(uint64(l.proxyHost[v]))
		putRow(l.flatOut[v])
		putRow(l.upOut[v])
		putRow(l.flatIn[v])
		put(math.Float64bits(l.x[v]))
		if l.parent != nil {
			put(uint64(l.parent[v]))
		}
	}
	return h.Sum64()
}

// TestLayeringPinned pins the layering and the states bit for bit on two
// presets with replicated hosts, after construction and after a churn
// sequence whose vertex growth relocates the proxy segment and whose edge
// and vertex churn orphans and revives proxies. Any change to the flat ID
// space, its rows or its states shows up here as a different hash.
// Under -short (the race-detector CI job) only the SSSP rows run.
func TestLayeringPinned(t *testing.T) {
	want := map[string][2]uint64{
		"UK/sssp":     {0x1509d1d9a3898f0b, 0xc34f1218b7f9317f},
		"UK/pagerank": {0x74196041c14edef1, 0xf0038390a6bdc31b},
		"SK/sssp":     {0x6288fac10f0359da, 0x363e90ca0fe78ccc},
		"SK/pagerank": {0x3c7dea50e76db26e, 0xba4fb62544675701},
	}
	algos := []struct {
		name string
		mk   func() algo.Algorithm
	}{
		{"sssp", func() algo.Algorithm { return algo.NewSSSP(0) }},
		{"pagerank", func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) }},
	}
	for _, preset := range []gen.Preset{gen.PresetUK, gen.PresetSK} {
		for _, a := range algos {
			name := string(preset) + "/" + a.name
			t.Run(name, func(t *testing.T) {
				if testing.Short() && a.name == "pagerank" {
					t.Skip("-short pins the SSSP rows only: the sequential PageRank churn takes minutes under -race")
				}
				g := gen.Build(preset, 0.2)
				l := New(g, a.mk(), Options{Workers: 1})
				var got [2]uint64
				got[0] = hashLayering(l)
				genr := delta.NewGenerator(7)
				for b := 0; b < 12; b++ {
					batch := genr.EdgeBatch(g, 400, true)
					for _, u := range genr.VertexBatch(g, 6, 4, 3, true) {
						if u.Kind != delta.DelVertex || u.U != 0 { // keep the source alive
							batch = append(batch, u)
						}
					}
					l.Update(delta.Apply(g, batch))
				}
				if err := l.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got[1] = hashLayering(l)
				if got != want[name] {
					t.Errorf("layering hash after New %#x, after churn %#x; want %#x, %#x",
						got[0], got[1], want[name][0], want[name][1])
				}
			})
		}
	}
}
