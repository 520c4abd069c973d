package graph

import (
	"runtime"
	"testing"
)

// TestImplicitInt32OverflowGuards pins the NodeID/edge-id caps: node ids and
// edge ids are stored as int32 end to end (adjacency halves, engine state,
// checkpoints), so a spec whose n exceeds MaxNodes or whose edge count
// exceeds the implicit cap must be rejected at construction, not wrap at
// runtime. The constructors are O(1), so probing beyond-cap sizes is free.
func TestImplicitInt32OverflowGuards(t *testing.T) {
	if _, err := ImplicitRing(1<<31+10, 1); err == nil {
		t.Error("ring with n > MaxNodes accepted")
	}
	if _, err := ImplicitPath(MaxNodes+1, 1); err == nil {
		t.Error("path with n = MaxNodes+1 accepted")
	}
	if _, err := ImplicitStar(1<<32, 1); err == nil {
		t.Error("star with n = 2^32 accepted")
	}
	// Hypercube dim 29: n = 2^29 fits, but m = 29·2^28 ≈ 7.8e9 overflows the
	// edge-id space — the m cap must fire even when n is representable.
	if _, err := ImplicitHypercube(29, 1); err == nil {
		t.Error("hypercube with m > implicit edge cap accepted")
	}
	// The spec grammar is the CLI surface; the guard must reach it.
	if _, err := ParseSpec("ring:3000000000", 1); err == nil {
		t.Error("spec ring:3000000000 accepted")
	}

	// At-cap sizes stay constructible (the guard is >, not >=).
	if _, err := ImplicitRing(MaxNodes, 1); err != nil {
		t.Errorf("ring at MaxNodes rejected: %v", err)
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoredSpecsCapped: every stored form, generated or materialized,
// rejects a size past MaxStoredEdges before it allocates for it. Each spec
// below used to exhaust memory; the ray's edge count wraps to 0 in 64 bits.
// The implicit star is capped too, because it stores its hub's adjacency.
func TestStoredSpecsCapped(t *testing.T) {
	const limit = 1 << 20
	for _, spec := range []string{
		"star:100000000",
		"mat:torus:777777381",
		"mat:ring:100000000",
		"random:400000000,0",
		"ba:400000000,1",
		"ws:400000000,2,0",
		"ray:4294967296,4294967296",
		"complete:1000000",
	} {
		var err error
		alloc := allocatedBy(func() { _, err = ParseSpec(spec, 1) })
		if err == nil {
			t.Errorf("%s: built past MaxStoredEdges", spec)
		}
		if alloc >= limit {
			t.Errorf("%s: allocated %d bytes before failing, want under %d", spec, alloc, limit)
		}
	}

	// extra is clamped to the non-edges before it sizes anything, so a
	// 3-node request for 2*10^8 chords is K3.
	k3, err := ParseSpec("random:3,200000000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if k3.N() != 3 || k3.M() != 3 {
		t.Errorf("random:3,200000000: n=%d m=%d, want K3", k3.N(), k3.M())
	}
	if _, err := Complete(64, 1); err != nil {
		t.Errorf("complete n=64: %v", err)
	}
	if _, err := ParseSpec("star:1000", 1); err != nil {
		t.Errorf("star:1000: %v", err)
	}
}
