package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
)

// hashLayering returns two FNV-64a hashes. The structure hash covers the
// layering: the flat ID space's size, every slot's role, subgraph and proxy
// host, its flat out- and flat in-rows in order, and the targets of its
// skeleton row. The value hash covers what the computation derived on it:
// the skeleton row's weights (shortcut values come from local runs) and
// the bits of every state and parent.
func hashLayering(l *Layph) (structure, value uint64) {
	hs, hv := fnv.New64a(), fnv.New64a()
	put := func(h hash.Hash64, x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putRow := func(row []engine.WEdge) {
		put(hs, uint64(len(row)))
		for _, e := range row {
			put(hs, uint64(e.To))
			put(hs, math.Float64bits(e.W))
		}
	}
	put(hs, uint64(l.flatN()))
	for v := 0; v < l.flatN(); v++ {
		put(hs, uint64(l.role[v]))
		put(hs, uint64(uint32(l.subOf[v])))
		put(hs, uint64(l.proxyHost[v]))
		putRow(l.flatOut[v])
		putRow(l.flatIn[v])
		put(hs, uint64(len(l.upOut[v])))
		for _, e := range l.upOut[v] {
			put(hs, uint64(e.To))
			put(hv, math.Float64bits(e.W))
		}
		put(hv, math.Float64bits(l.x[v]))
		if l.parent != nil {
			put(hv, uint64(l.parent[v]))
		}
	}
	return hs.Sum64(), hv.Sum64()
}

// TestLayeringPinned pins the layering and the states bit for bit on two
// presets with replicated hosts, after construction and after a churn
// sequence whose vertex growth relocates the proxy segment and whose edge
// and vertex churn orphans and revives proxies. Any change to the flat ID
// space or its rows shows up as a different structure hash; a change to the
// computation alone (a schedule, a tolerance) moves only the value hash.
// The PageRank rows also check that every shortcut vector after the churn
// is bit-identical to a fresh deduction over its frame.
// Under -short (the race-detector CI job) only the SSSP rows run.
func TestLayeringPinned(t *testing.T) {
	// Each pair is {after New, after churn}.
	type pin struct{ structure, value [2]uint64 }
	want := map[string]pin{
		"UK/sssp":     {[2]uint64{0x2d4757ac993a2c8a, 0xab33ff93baf20d35}, [2]uint64{0x1f48c7370bb987e8, 0x29740214fee32f93}},
		"UK/pagerank": {[2]uint64{0x5716a52485754a6d, 0x4bb2826ebfc52006}, [2]uint64{0xe18779214657e61a, 0x5ae26877a15ddb12}},
		"SK/sssp":     {[2]uint64{0x3dff9cef6a08d7ab, 0x054da0182f21314e}, [2]uint64{0x824b946b4001377c, 0xc31198635bc0c7b7}},
		"SK/pagerank": {[2]uint64{0x84c0de4efb90f1cd, 0xc03fc26ca247e430}, [2]uint64{0x9db506681985ca05, 0x14e144a5f6435228}},
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
				var got pin
				got.structure[0], got.value[0] = hashLayering(l)
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
				if a.name == "pagerank" {
					if err := freshShortcutsDiff(l, 0); err != nil {
						t.Fatal(err)
					}
				}
				got.structure[1], got.value[1] = hashLayering(l)
				w := want[name]
				if got.structure != w.structure {
					t.Errorf("structure hash after New %#x, after churn %#x; want %#x, %#x",
						got.structure[0], got.structure[1], w.structure[0], w.structure[1])
				}
				if got.value != w.value {
					t.Errorf("value hash after New %#x, after churn %#x; want %#x, %#x",
						got.value[0], got.value[1], w.value[0], w.value[1])
				}
			})
		}
	}
}
