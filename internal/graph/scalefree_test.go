package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// edgeListDigest is the sha256 of g's edge list as "U V Weight" lines, in
// edge-id order.
func edgeListDigest(g *Graph) string {
	h := sha256.New()
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d %d\n", e.U, e.V, e.Weight)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBarabasiAlbertPinned holds the preferential-attachment generator to
// committed edge lists: node ids, edge order and permutation weights. Any
// change to how targets are drawn or ordered moves a digest.
func TestBarabasiAlbertPinned(t *testing.T) {
	for _, tc := range []struct {
		n, attach int
		seed      int64
		digest    string
	}{
		{300, 3, 1, "0c3c0f185787f821d2363586fbe779693159ea42f7b83ac7714709b0523961f1"},
		{2000, 3, 7, "8643de9c8398419a47d1780e8d7499e3cd0f979864ec1c328f4933ead0a6ccc3"},
		{5000, 7, 2, "34c2a358d669a30209c269ec1c244212a45892f7030a296991541ec533d413fd"},
	} {
		g, err := BarabasiAlbert(tc.n, tc.attach, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := edgeListDigest(g); got != tc.digest {
			t.Errorf("ba:%d,%d seed %d: edge list sha256 %s, want %s", tc.n, tc.attach, tc.seed, got, tc.digest)
		}
	}
}
