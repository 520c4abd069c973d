package graph

import (
	"testing"
	"testing/quick"
)

// checkDistinctWeights verifies the generator invariant that all weights are
// pairwise distinct (Build would have failed otherwise, but assert anyway).
func checkDistinctWeights(t *testing.T, g Topology) {
	t.Helper()
	seen := make(map[Weight]bool, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if seen[e.Weight] {
			t.Fatalf("duplicate weight %d", e.Weight)
		}
		seen[e.Weight] = true
	}
}

func TestRing(t *testing.T) {
	g, err := ImplicitRing(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 8 {
		t.Errorf("ring(8): n=%d m=%d", g.N(), g.M())
	}
	if !ConnectedTopo(g) {
		t.Error("ring not connected")
	}
	if d := Diameter(g); d != 4 {
		t.Errorf("ring(8) diameter = %d, want 4", d)
	}
	for v := 0; v < 8; v++ {
		if g.Degree(NodeID(v)) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(NodeID(v)))
		}
	}
	checkDistinctWeights(t, g)
}

func TestPath(t *testing.T) {
	g, err := ImplicitPath(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 4 || Diameter(g) != 4 {
		t.Errorf("path(5): m=%d diam=%d", g.M(), Diameter(g))
	}
}

func TestGrid(t *testing.T) {
	g, err := ImplicitGrid(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("grid n = %d, want 12", g.N())
	}
	// edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
	if g.M() != 17 {
		t.Errorf("grid m = %d, want 17", g.M())
	}
	if d := Diameter(g); d != 5 {
		t.Errorf("grid(3,4) diameter = %d, want 5", d)
	}
	checkDistinctWeights(t, g)
}

func TestTorus(t *testing.T) {
	g, err := ImplicitTorus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 9 || g.M() != 18 {
		t.Errorf("torus(3,3): n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(NodeID(v)) != 4 {
			t.Errorf("torus degree(%d) = %d, want 4", v, g.Degree(NodeID(v)))
		}
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 15 || Diameter(g) != 1 {
		t.Errorf("K6: m=%d diam=%d", g.M(), Diameter(g))
	}
}

func TestStarAndBinaryTree(t *testing.T) {
	s, err := ImplicitStar(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 9 || Diameter(s) != 2 || s.Degree(0) != 9 {
		t.Errorf("star(10): m=%d diam=%d deg0=%d", s.M(), Diameter(s), s.Degree(0))
	}
	bt, err := ImplicitBinaryTree(15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bt.M() != 14 || !ConnectedTopo(bt) {
		t.Errorf("btree(15): m=%d connected=%v", bt.M(), ConnectedTopo(bt))
	}
	if d := Diameter(bt); d != 6 {
		t.Errorf("btree(15) diameter = %d, want 6", d)
	}
}

func TestRandomConnected(t *testing.T) {
	for _, tt := range []struct{ n, extra int }{
		{2, 0}, {10, 0}, {10, 5}, {50, 100}, {5, 1000}, // extra clamped
	} {
		g, err := RandomConnected(tt.n, tt.extra, 42)
		if err != nil {
			t.Fatalf("RandomConnected(%d,%d): %v", tt.n, tt.extra, err)
		}
		if !g.Connected() {
			t.Errorf("RandomConnected(%d,%d) not connected", tt.n, tt.extra)
		}
		wantM := tt.n - 1 + tt.extra
		if max := tt.n * (tt.n - 1) / 2; wantM > max {
			wantM = max
		}
		if g.M() != wantM {
			t.Errorf("RandomConnected(%d,%d) m = %d, want %d", tt.n, tt.extra, g.M(), wantM)
		}
		checkDistinctWeights(t, g)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a, _ := RandomConnected(30, 40, 7)
	b, _ := RandomConnected(30, 40, 7)
	if a.M() != b.M() {
		t.Fatal("same seed, different edge count")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same seed, edge %d differs: %v vs %v", i, a.Edge(i), b.Edge(i))
		}
	}
	c, _ := RandomConnected(30, 40, 8)
	same := c.M() == a.M()
	if same {
		diff := false
		for i := range a.Edges() {
			if a.Edge(i) != c.Edge(i) {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestRay(t *testing.T) {
	g, err := Ray(4, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 21 || g.M() != 20 {
		t.Errorf("ray(4,5): n=%d m=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 10 {
		t.Errorf("ray(4,5) diameter = %d, want 10", d)
	}
	if g.Degree(0) != 4 {
		t.Errorf("center degree = %d, want 4", g.Degree(0))
	}
}

func TestGeneratorErrors(t *testing.T) {
	bad := []error{
		func() error { _, err := Complete(1, 1); return err }(),
		func() error { _, err := RandomConnected(1, 0, 1); return err }(),
		func() error { _, err := Ray(0, 3, 1); return err }(),
	}
	for i, err := range bad {
		if err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
}

// Property: every generated random graph is connected, simple and has
// distinct weights 1..m.
func TestRandomConnectedProperty(t *testing.T) {
	prop := func(nRaw uint8, extraRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%60
		extra := int(extraRaw) % 80
		g, err := RandomConnected(n, extra, seed)
		if err != nil || !g.Connected() {
			return false
		}
		seen := make(map[Weight]bool)
		for _, e := range g.Edges() {
			if e.U == e.V || e.Weight < 1 || e.Weight > Weight(g.M()) || seen[e.Weight] {
				return false
			}
			seen[e.Weight] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHypercube(t *testing.T) {
	g, err := ImplicitHypercube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 32 {
		t.Errorf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(NodeID(v)) != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, g.Degree(NodeID(v)))
		}
	}
	if d := Diameter(g); d != 4 {
		t.Errorf("Q4 diameter = %d, want 4", d)
	}
	checkDistinctWeights(t, g)
	if _, err := ImplicitHypercube(0, 1); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := ImplicitHypercube(31, 1); err == nil {
		t.Error("dim 31 should error")
	}
}
