package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// implicitCases enumerates every implicit family at a few sizes.
func implicitCases(t *testing.T) map[string]*Implicit {
	t.Helper()
	cases := map[string]*Implicit{}
	add := func(name string, top *Implicit, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = top
	}
	r, err := ImplicitRing(17, 3)
	add("ring17", r, err)
	r, err = ImplicitRing(3, 5)
	add("ring3", r, err)
	p, err := ImplicitPath(2, 1)
	add("path2", p, err)
	p, err = ImplicitPath(23, 9)
	add("path23", p, err)
	g, err := ImplicitGrid(4, 7, 2)
	add("grid4x7", g, err)
	g, err = ImplicitGrid(1, 9, 2)
	add("grid1x9", g, err)
	g, err = ImplicitGrid(6, 1, 4)
	add("grid6x1", g, err)
	tor, err := ImplicitTorus(3, 5, 8)
	add("torus3x5", tor, err)
	h, err := ImplicitHypercube(4, 6)
	add("hypercube4", h, err)
	h, err = ImplicitHypercube(1, 6)
	add("hypercube1", h, err)
	s, err := ImplicitStar(29, 7)
	add("star29", s, err)
	s, err = ImplicitStar(2, 7)
	add("star2", s, err)
	b, err := ImplicitBinaryTree(21, 11)
	add("btree21", b, err)
	b, err = ImplicitBinaryTree(2, 11)
	add("btree2", b, err)
	return cases
}

// TestImplicitInvariants checks every implicit family against the Topology
// contract: a simple connected graph, canonical edge ids that round-trip
// through Adj from both endpoints, distinct positive weights, and adjacency
// sorted by ascending weight with Degree and AdjView (one scratch reused
// across nodes) consistent with Adj.
func TestImplicitInvariants(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, top := range implicitCases(t) {
		t.Run(name, func(t *testing.T) {
			n, m := top.N(), top.M()
			if !ConnectedTopo(top) {
				t.Fatalf("not connected")
			}
			weights := make(map[Weight]int, m)
			degSum := 0
			seenPair := make(map[[2]NodeID]bool, m)
			for id := 0; id < m; id++ {
				e := top.Edge(id)
				if e.U == e.V || e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
					t.Fatalf("edge %d = {%d,%d} invalid", id, e.U, e.V)
				}
				if e.Weight <= 0 {
					t.Fatalf("edge %d weight %d not positive", id, e.Weight)
				}
				if prev, dup := weights[e.Weight]; dup {
					t.Fatalf("edges %d and %d share weight %d", prev, id, e.Weight)
				}
				weights[e.Weight] = id
				key := normPair(e.U, e.V)
				if seenPair[key] {
					t.Fatalf("pair {%d,%d} appears twice", e.U, e.V)
				}
				seenPair[key] = true
				// Incidence round-trips from both endpoints, exactly once each.
				for _, v := range []NodeID{e.U, e.V} {
					found := 0
					for _, h := range top.Adj(v) {
						if int(h.EdgeID) != id {
							continue
						}
						found++
						if h.To != e.Other(v) || h.Weight != e.Weight {
							t.Fatalf("node %d: link of edge %d = %+v, want %+v", v, id, h, e)
						}
					}
					if found != 1 {
						t.Fatalf("node %d lists edge %d %d times, want once", v, id, found)
					}
				}
			}
			var scratch AdjScratch
			for v := NodeID(0); int(v) < n; v++ {
				adj := top.Adj(v)
				if len(adj) != top.Degree(v) {
					t.Fatalf("node %d: len(Adj)=%d Degree=%d", v, len(adj), top.Degree(v))
				}
				degSum += len(adj)
				view := top.AdjView(v, &scratch)
				if len(view) != len(adj) {
					t.Fatalf("node %d: AdjView length %d, Adj %d", v, len(view), len(adj))
				}
				for l, h := range adj {
					if l > 0 && adj[l-1].Weight >= h.Weight {
						t.Fatalf("node %d adjacency not weight-sorted at %d", v, l)
					}
					if view[l] != h {
						t.Fatalf("node %d: AdjView[%d] = %+v, want %+v", v, l, view[l], h)
					}
				}
			}
			if degSum != 2*m {
				t.Fatalf("degree sum %d, want 2m = %d", degSum, 2*m)
			}
		})
	}
}

// TestMaterializeMatchesImplicit checks the cross-form contract at the
// graph level: Materialize yields identical N, M, edges (ids, endpoints,
// weights), and sorted adjacency — the structural half of transcript
// identity — and the stored form's AdjView is its own adjacency slice.
func TestMaterializeMatchesImplicit(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, top := range implicitCases(t) {
		t.Run(name, func(t *testing.T) {
			g, err := Materialize(top)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != top.N() || g.M() != top.M() {
				t.Fatalf("materialized n=%d m=%d, implicit n=%d m=%d", g.N(), g.M(), top.N(), top.M())
			}
			for id := 0; id < g.M(); id++ {
				if g.Edge(id) != top.Edge(id) {
					t.Fatalf("edge %d: materialized %+v, implicit %+v", id, g.Edge(id), top.Edge(id))
				}
			}
			for v := NodeID(0); int(v) < g.N(); v++ {
				ga, ta := g.Adj(v), top.Adj(v)
				if len(ga) != len(ta) {
					t.Fatalf("node %d: adjacency lengths %d vs %d", v, len(ga), len(ta))
				}
				if view := g.AdjView(v, nil); &view[0] != &ga[0] {
					t.Fatalf("node %d: stored AdjView is not the stored slice", v)
				}
				for l := range ga {
					if ga[l] != ta[l] {
						t.Fatalf("node %d link %d: materialized %+v, implicit %+v", v, l, ga[l], ta[l])
					}
				}
			}
		})
	}
}

// TestMaterializeGraphIdentity: a *Graph materializes to itself.
func TestMaterializeGraphIdentity(t *testing.T) {
	g, err := RandomConnected(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("Materialize(*Graph) returned a copy")
	}
}

// TestAdjAllocations pins the allocation costs of the adjacency paths:
// AdjView allocates nothing once its scratch is sized, Implicit.Adj makes
// at most two allocations (the star hub's cached list none), and the
// reference BFS over an implicit ring makes a fixed handful, not one per
// node.
func TestAdjAllocations(t *testing.T) {
	ring, err := ImplicitRing(10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ImplicitHypercube(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := ImplicitStar(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	var scratch AdjScratch
	cube.AdjView(0, &scratch)
	if a := testing.AllocsPerRun(100, func() { cube.AdjView(7, &scratch) }); a != 0 {
		t.Errorf("hypercube:10 AdjView with a sized scratch: %.0f allocations, want 0", a)
	}
	for _, tc := range []struct {
		name string
		top  *Implicit
		v    NodeID
		max  float64
	}{
		{"ring:10000", ring, 5, 2},
		{"hypercube:10", cube, 5, 2},
		{"star:40 leaf", star, 5, 2},
		{"star:40 hub", star, 0, 0},
	} {
		if a := testing.AllocsPerRun(100, func() { tc.top.Adj(tc.v) }); a > tc.max {
			t.Errorf("%s: Adj(%d) makes %.0f allocations, want at most %.0f", tc.name, tc.v, a, tc.max)
		}
	}
	if a := testing.AllocsPerRun(5, func() { NewBFS(ring, 0) }); a > 8 {
		t.Errorf("NewBFS over implicit ring:10000 makes %.0f allocations, want at most 8", a)
	}
}

// TestImplicitConstructorErrors checks size validation.
func TestImplicitConstructorErrors(t *testing.T) {
	if _, err := ImplicitRing(2, 1); err == nil {
		t.Error("ring n=2 accepted")
	}
	if _, err := ImplicitPath(1, 1); err == nil {
		t.Error("path n=1 accepted")
	}
	if _, err := ImplicitTorus(2, 3, 1); err == nil {
		t.Error("torus 2x3 accepted")
	}
	if _, err := ImplicitHypercube(31, 1); err == nil {
		t.Error("hypercube dim=31 accepted")
	}
	if _, err := ImplicitHypercube(29, 1); err == nil {
		// 29*2^28 edges are past the implicit 2^31 edge-id cap.
		t.Error("hypercube dim=29 accepted past the edge cap")
	}
	if _, err := ImplicitStar(1, 1); err == nil {
		t.Error("star n=1 accepted")
	}
	if _, err := ImplicitBinaryTree(1, 1); err == nil {
		t.Error("btree n=1 accepted")
	}
}

// TestImplicitScaleConstantMemory spot-checks the point of the exercise: a
// 10^7-node implicit ring answers queries without materializing anything.
func TestImplicitScaleConstantMemory(t *testing.T) {
	const n = 10_000_000
	top, err := ImplicitRing(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != n || top.M() != n {
		t.Fatalf("n=%d m=%d", top.N(), top.M())
	}
	if d := top.Degree(n / 2); d != 2 {
		t.Fatalf("degree %d", d)
	}
	e := top.Edge(n - 1) // the wrap edge
	if e.U != n-1 || e.V != 0 {
		t.Fatalf("wrap edge %+v", e)
	}
	adj := top.Adj(12345)
	if len(adj) != 2 || adj[0].Weight >= adj[1].Weight {
		t.Fatalf("adj %+v", adj)
	}
}

// TestScaleFreeGenerators checks BA and WS shape invariants: connected,
// simple, expected edge counts, and (for BA) a hub heavier than the ring
// could ever produce.
func TestScaleFreeGenerators(t *testing.T) {
	g, err := BarabasiAlbert(500, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("BA graph disconnected")
	}
	wantM := 3*2 + (500-4)*3
	if g.M() != wantM {
		t.Fatalf("BA m=%d, want %d", g.M(), wantM)
	}
	maxDeg := 0
	for v := NodeID(0); int(v) < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Fatalf("BA max degree %d; expected a heavy-tailed hub", maxDeg)
	}

	for _, beta := range []float64{0, 0.2, 1} {
		ws, err := WattsStrogatz(200, 6, beta, 11)
		if err != nil {
			t.Fatalf("beta=%g: %v", beta, err)
		}
		if !ws.Connected() {
			t.Fatalf("WS beta=%g disconnected", beta)
		}
		if ws.M() != 200*3 {
			t.Fatalf("WS m=%d, want %d", ws.M(), 600)
		}
	}
	if _, err := BarabasiAlbert(3, 3, 1); err == nil {
		t.Error("BA n<attach+2 accepted")
	}
	if _, err := WattsStrogatz(10, 3, 0.1, 1); err == nil {
		t.Error("WS odd k accepted")
	}
}

// TestParseSpec covers the shared grammar: implicit specs, the mat: prefix,
// the rejection of bare names, and error cases.
func TestParseSpec(t *testing.T) {
	top, err := ParseSpec("ring:64", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := top.(*Implicit); !ok {
		t.Fatalf("ring:64 built %T, want *Implicit", top)
	}
	if top.N() != 64 {
		t.Fatalf("n=%d", top.N())
	}

	mat, err := ParseSpec("mat:ring:64", 3)
	if err != nil {
		t.Fatal(err)
	}
	mg, ok := mat.(*Graph)
	if !ok {
		t.Fatalf("mat:ring:64 built %T, want *Graph", mat)
	}
	for id := 0; id < top.M(); id++ {
		if mg.Edge(id) != top.Edge(id) {
			t.Fatalf("edge %d differs across forms", id)
		}
	}

	grid, err := ParseSpec("grid:3x9", 1)
	if err != nil {
		t.Fatal(err)
	}
	if grid.N() != 27 {
		t.Fatalf("grid:3x9 n=%d", grid.N())
	}
	if hc, err := ParseSpec("hypercube:5", 1); err != nil || hc.N() != 32 {
		t.Fatalf("hypercube:5 -> %v, %v", hc, err)
	}
	if ws, err := ParseSpec("ws:64,4,0.25", 1); err != nil || ws.N() != 64 {
		t.Fatalf("ws spec: %v", err)
	}
	if ba, err := ParseSpec("ba:64,2", 1); err != nil || ba.N() != 64 {
		t.Fatalf("ba spec: %v", err)
	}

	// Every spec carries its own size: each family's bare name is
	// rejected, with or without the mat: prefix.
	for _, name := range SpecNames() {
		want := fmt.Sprintf("graph: spec %q needs arguments (e.g. %s:1024)", name, name)
		for _, spec := range []string{name, "mat:" + name} {
			if _, err := ParseSpec(spec, 1); err == nil || err.Error() != want {
				t.Errorf("bare %q: error %v, want %q", spec, err, want)
			}
		}
	}

	for _, bad := range []string{"nope:4", "ring", "ring:x", "grid:axb", "ws:10,4", "ba:10", ""} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestSortHalvesMatchesSortFunc: on every length from 0 to 40, on both sides
// of insertionSortMax, sortHalves orders distinct weights exactly as the
// generic sort does.
func TestSortHalvesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			adj := make([]Half, n)
			for i := range adj {
				// The edge id in the low bits keeps random weights distinct,
				// as implicitWeight does.
				w := Weight(rng.Int63n(1<<30)<<31 | int64(i))
				adj[i] = Half{To: NodeID(i), Weight: w, EdgeID: int32(i)}
			}
			want := slices.Clone(adj)
			slices.SortFunc(want, func(a, b Half) int { return cmp.Compare(a.Weight, b.Weight) })
			sortHalves(adj)
			if !slices.Equal(adj, want) {
				t.Fatalf("length %d, trial %d: sortHalves = %v, want %v", n, trial, adj, want)
			}
		}
	}
}
