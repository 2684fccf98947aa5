package community

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"layph/internal/gen"
	"layph/internal/graph"
)

// defaultK is the community size cap core.New derives when none is set.
func defaultK(g *graph.Graph) int {
	return min(max(g.NumVertices()/1000, 64), 4096)
}

// hashComm is an FNV-64a over the little-endian assignment.
func hashComm(comm []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range comm {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDetectPinnedPartitions pins Detect's exact output on the four presets
// at ×0.2, with the default size cap and uncapped. Any change to the local
// move order, the tie-break or the aggregation shows up here as a different
// partition, not merely a different modularity.
func TestDetectPinnedPartitions(t *testing.T) {
	want := map[string]struct {
		comms int
		hash  uint64
	}{
		"UK/K":   {245, 0x118a365a8c10d01b},
		"UK/inf": {199, 0xea4a8eaf759d9bb2},
		"IT/K":   {278, 0x1946712fda77181f},
		"IT/inf": {205, 0x023085f970204037},
		"SK/K":   {293, 0xe114739831564bac},
		"SK/inf": {234, 0xa0d703fbccc213d0},
		"WB/K":   {157, 0xdb3e7c644b394353},
		"WB/inf": {11, 0x9d738e97236c82a4},
	}
	for _, preset := range gen.AllPresets {
		g := gen.Build(preset, 0.2)
		for _, capped := range []bool{true, false} {
			name, cfg := string(preset)+"/inf", Config{}
			if capped {
				name, cfg = string(preset)+"/K", Config{MaxSize: defaultK(g)}
			}
			p := Detect(g, cfg)
			got := want[name]
			got.comms, got.hash = p.NumComms, hashComm(p.Comm)
			if got != want[name] {
				t.Errorf("%s: NumComms=%d hash=%#x, want NumComms=%d hash=%#x",
					name, got.comms, got.hash, want[name].comms, want[name].hash)
			}
		}
	}
}

// BenchmarkDetect times detection on the benchmark's UK ×1 graph at the
// default size cap, the offline phase's largest stage.
func BenchmarkDetect(b *testing.B) {
	g := gen.Build(gen.PresetUK, 1)
	cfg := Config{MaxSize: defaultK(g)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(g, cfg)
	}
}
