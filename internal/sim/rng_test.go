package sim

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// nodeRand returns the generator StepCtx.Rand hands a node — the shard's
// rand.Rand over its (state word, draw count) slot — for a one-node shard
// whose stream is seeded with seed and positioned after draws outputs. The
// returned shard exposes the slot's draw count as rngDraws[0].
func nodeRand(seed int64, draws uint64) (*rand.Rand, *stepShard) {
	sd := &stepShard{hi: 1}
	sd.ensureRNG()
	sd.rngWord[0], sd.rngDraws[0] = rngWordAt(seed, draws), draws
	return sd.rng, sd
}

// TestNodeSeedNoLinearCollision is the regression test for the historical
// seed*1_000_003 + id derivation: under it, (s, id+1_000_003) and (s+1, id)
// produced the same per-node seed and therefore identical RNG streams. The
// mixed derivation must give distinct seeds and distinct streams.
func TestNodeSeedNoLinearCollision(t *testing.T) {
	cases := []struct {
		s  int64
		id graph.NodeID
	}{
		{0, 0},
		{1, 1},
		{42, 7},
		{42, 999_999},
		{-3, 123},
		{1 << 40, 1_000_002},
	}
	for _, c := range cases {
		a := nodeSeed(c.s, c.id+1_000_003)
		b := nodeSeed(c.s+1, c.id)
		if a == b {
			t.Errorf("nodeSeed(%d,%d) == nodeSeed(%d,%d) == %d: linear collision survived",
				c.s, c.id+1_000_003, c.s+1, c.id, a)
		}
		ra, _ := nodeRand(a, 0)
		rb, _ := nodeRand(b, 0)
		same := true
		for i := 0; i < 8; i++ {
			if ra.Uint64() != rb.Uint64() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("streams for (s=%d,id=%d) and (s=%d,id=%d) agree on first 8 draws",
				c.s, c.id+1_000_003, c.s+1, c.id)
		}
	}
}

// TestNodeSeedDistinctPairs spot-checks that distinct (seed, id) pairs give
// distinct node seeds across a modest grid — a smoke test for the mix, not a
// collision-resistance proof.
func TestNodeSeedDistinctPairs(t *testing.T) {
	seen := make(map[int64][2]int64)
	for s := int64(-2); s <= 2; s++ {
		for id := 0; id < 1000; id++ {
			k := nodeSeed(s, graph.NodeID(id))
			if prev, dup := seen[k]; dup {
				t.Fatalf("nodeSeed collision: (%d,%d) and (%d,%d) -> %d", prev[0], prev[1], s, id, k)
			}
			seen[k] = [2]int64{s, int64(id)}
		}
	}
}

// TestNodeRandCountsAndReplays verifies the two properties checkpointing
// leans on: every generator call advances the draw counter, and a fresh
// generator fast-forwarded by that count continues the stream bit-identically.
func TestNodeRandCountsAndReplays(t *testing.T) {
	const seed = 0x5eed
	r, sd := nodeRand(seed, 0)
	// Mix method kinds: each consumes exactly one source draw per internal
	// Uint64/Int63 call; Float64 and Intn may retry, which the counter must
	// reflect too (that is the point of counting at the source).
	for i := 0; i < 100; i++ {
		switch i % 4 {
		case 0:
			r.Uint64()
		case 1:
			r.Int63()
		case 2:
			r.Float64()
		case 3:
			r.Intn(10)
		}
	}
	if sd.rngDraws[0] == 0 {
		t.Fatal("draw counter never advanced")
	}
	mark := sd.rngDraws[0]

	want := make([]uint64, 16)
	for i := range want {
		want[i] = r.Uint64()
	}

	r2, sd2 := nodeRand(seed, mark)
	if sd2.rngDraws[0] != mark {
		t.Fatalf("resumed counter = %d, want %d", sd2.rngDraws[0], mark)
	}
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("resumed stream diverged at draw %d: got %d want %d", i, got, want[i])
		}
	}
	if sd2.rngDraws[0] != mark+16 {
		t.Fatalf("resumed counter after 16 draws = %d, want %d", sd2.rngDraws[0], mark+16)
	}
}

// TestNodeRandIsSplitMix64 pins the stream itself: the node generator must
// be canonical SplitMix64 (gamma-stepped Weyl state through the 30/27/31
// finalizer), because checkpoint resume re-derives a stream's position from
// its seed and draw count alone — any drift from the canonical sequence
// would silently fork resumed runs from uninterrupted ones.
func TestNodeRandIsSplitMix64(t *testing.T) {
	const seed = 12345
	r, _ := nodeRand(seed, 0)
	word := uint64(seed)
	for i := 0; i < 64; i++ {
		word += 0x9e3779b97f4a7c15
		z := word
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		want := z ^ (z >> 31)
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d: got %#x, want canonical splitmix64 %#x", i, got, want)
		}
	}
	// O(1) positioning is the arithmetic the resume path depends on.
	if got, want := rngWordAt(seed, 64), word; got != want {
		t.Fatalf("rngWordAt(seed, 64) = %#x, want stepped state %#x", got, want)
	}
}

// TestNodeRandInt63HalvesUint64 pins the Source64 coupling: Int63 is
// exactly one Uint64 draw shifted down, so either entry point advances the
// stream identically and the draw counter stays the position's sole truth.
func TestNodeRandInt63HalvesUint64(t *testing.T) {
	const seed = 12345
	a, sa := nodeRand(seed, 0)
	b, sb := nodeRand(seed, 0)
	for i := 0; i < 64; i++ {
		if got, want := a.Int63(), int64(b.Uint64()>>1); got != want {
			t.Fatalf("draw %d: Int63 %d, want Uint64>>1 %d", i, got, want)
		}
	}
	if sa.rngDraws[0] != sb.rngDraws[0] {
		t.Fatalf("Int63 advanced %d draws, Uint64 %d", sa.rngDraws[0], sb.rngDraws[0])
	}
}
