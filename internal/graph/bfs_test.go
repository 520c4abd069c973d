package graph

import "testing"

func TestBFSPath(t *testing.T) {
	g, err := ImplicitPath(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBFS(g, 0)
	for v := 0; v < 5; v++ {
		if b.Dist[v] != v {
			t.Errorf("Dist[%d] = %d, want %d", v, b.Dist[v], v)
		}
	}
	if b.Parent[0] != -1 {
		t.Errorf("root parent = %d, want -1", b.Parent[0])
	}
	for v := 1; v < 5; v++ {
		if b.Parent[v] != NodeID(v-1) {
			t.Errorf("Parent[%d] = %d, want %d", v, b.Parent[v], v-1)
		}
	}
	if b.Eccentricity() != 4 || b.Reached() != 5 {
		t.Errorf("ecc=%d reached=%d", b.Eccentricity(), b.Reached())
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := mustBuild(t, NewBuilder(3).AddEdge(0, 1, 1))
	b := NewBFS(g, 0)
	if b.Dist[2] != -1 || b.Parent[2] != -1 {
		t.Errorf("unreachable node: dist=%d parent=%d", b.Dist[2], b.Parent[2])
	}
	if b.Reached() != 2 {
		t.Errorf("Reached = %d, want 2", b.Reached())
	}
}

func TestBFSOrderIsByLevel(t *testing.T) {
	g, err := ImplicitGrid(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBFS(g, 0)
	for i := 1; i < len(b.Order); i++ {
		if b.Dist[b.Order[i-1]] > b.Dist[b.Order[i]] {
			t.Fatal("BFS order not monotone in level")
		}
	}
}

func TestDiameterLowerBound(t *testing.T) {
	for _, mk := range []func() (Topology, error){
		func() (Topology, error) { return ImplicitPath(17, 1) },
		func() (Topology, error) { return ImplicitBinaryTree(31, 1) },
		func() (Topology, error) { return ImplicitRing(20, 1) },
		func() (Topology, error) { return ImplicitGrid(5, 7, 1) },
		func() (Topology, error) { return RandomConnected(40, 30, 5) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		exact, lb := Diameter(g), DiameterLowerBound(g)
		if lb > exact {
			t.Errorf("lower bound %d exceeds exact diameter %d", lb, exact)
		}
		if g.M() == g.N()-1 && lb != exact {
			t.Errorf("double sweep must be exact on trees: lb=%d exact=%d", lb, exact)
		}
	}
}
