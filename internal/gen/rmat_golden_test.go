package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ndgraph/internal/graph"
)

// edgeDigest is the SHA-256 of g's vertex count and canonical edge list,
// each endpoint as a little-endian uint32.
func edgeDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
	h.Write(buf[:])
	for v := uint32(0); int(v) < g.N(); v++ {
		for _, d := range g.OutNeighbors(v) {
			binary.LittleEndian.PutUint32(buf[:4], v)
			binary.LittleEndian.PutUint32(buf[4:], d)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMATGolden pins RMAT's output edge for edge. The digests were recorded
// from the generator's original per-level Float64 loop; any change to the
// draw order, the noise arithmetic or the quadrant choice shows up here.
func TestRMATGolden(t *testing.T) {
	cases := []struct {
		name   string
		n, m   int
		p      RMATParams
		seed   uint64
		edges  int
		digest string
	}{
		// The sssp-netdist benchmark graph and its neighbouring seed.
		{"bench-seed42", 200_000, 1_000_000, DefaultRMAT, 42, 581_670, "0e966520877528822d26872bd58a9933caa4c0b58671486dceed717f6a62197b"},
		{"bench-seed43", 200_000, 1_000_000, DefaultRMAT, 43, 575_808, "0257fd34631e5fc879a7807c56cbbb1c7bd7488372fd0ad90235df2a2bd567d1"},
		{"no-noise", 50_000, 300_000, RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.11}, 9, 173_088, "7f0509158820e012de332f5315853595733c64aaadfd367f91cdc1e46523da4d"},
		{"n-not-pow2", 3_000, 20_000, DefaultRMAT, 5, 9_391, "b7447280c97e83c3e81f8682d4930732d2d31ec8929185d00ff667ea1f498e64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := RMAT(tc.n, tc.m, tc.p, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			got := edgeDigest(g)
			if g.M() != tc.edges {
				t.Errorf("M = %d, want %d", g.M(), tc.edges)
			}
			if got != tc.digest {
				t.Errorf("edge digest = %s, want %s", got, tc.digest)
			}
		})
	}
}
