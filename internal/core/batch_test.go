package core

import (
	"fmt"
	"math"
	"testing"
)

// TestVectorProbeKeyBytes: the batcher key of a vector probe is
// byte-identical to its fmt spelling — "v:nprobe:maxCands:" and eight
// lowercase hex digits per component's bits — so which probes share a
// memo entry cannot move.
func TestVectorProbeKeyBytes(t *testing.T) {
	vec := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -3.5e-39, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45}
	for _, tc := range []struct {
		vec              []float32
		nprobe, maxCands int
	}{{nil, 0, 0}, {vec[:1], 1, 1}, {vec, 8, 40}, {vec, 123456, -7}} {
		want := fmt.Sprintf("v:%d:%d:", tc.nprobe, tc.maxCands)
		for _, f := range tc.vec {
			want += fmt.Sprintf("%08x", math.Float32bits(f))
		}
		if got := vectorProbeKey(tc.vec, tc.nprobe, tc.maxCands); got != want {
			t.Errorf("vectorProbeKey(%v, %d, %d) = %q, want %q", tc.vec, tc.nprobe, tc.maxCands, got, want)
		}
	}
}
