package graph

import (
	"testing"
	"testing/quick"
)

func TestKruskalTriangle(t *testing.T) {
	g := mustBuild(t, NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(0, 2, 3))
	mst, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Total != 3 {
		t.Errorf("MST total = %d, want 3", mst.Total)
	}
	if len(mst.EdgeIDs) != 2 || !mst.Contains(0) || !mst.Contains(1) || mst.Contains(2) {
		t.Errorf("MST edges = %v, want [0 1]", mst.EdgeIDs)
	}
}

func TestKruskalOnTreeIsIdentity(t *testing.T) {
	g, err := ImplicitBinaryTree(31, 3)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	var total Weight
	for id := 0; id < g.M(); id++ {
		total += g.Edge(id).Weight
	}
	if len(mst.EdgeIDs) != g.M() || mst.Total != total {
		t.Errorf("MST of a tree must be the tree itself: %d edges, total %d", len(mst.EdgeIDs), mst.Total)
	}
}

func TestKruskalDisconnected(t *testing.T) {
	g := mustBuild(t, NewBuilder(4).AddEdge(0, 1, 1).AddEdge(2, 3, 2))
	if _, err := Kruskal(g); err == nil {
		t.Error("Kruskal on disconnected graph should error")
	}
}

func TestMSTEqual(t *testing.T) {
	a := &MST{EdgeIDs: []int{0, 2, 5}, Total: 10}
	b := &MST{EdgeIDs: []int{0, 2, 5}, Total: 10}
	c := &MST{EdgeIDs: []int{0, 2, 6}, Total: 10}
	d := &MST{EdgeIDs: []int{0, 2}, Total: 10}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("MST.Equal misbehaves")
	}
}

// Property: the MST has n-1 edges, is spanning + acyclic (checked via
// union-find), and no non-tree edge can replace a heavier tree edge on the
// cycle it closes (cut optimality via the cycle rule on small graphs).
func TestKruskalProperty(t *testing.T) {
	prop := func(nRaw, extraRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%40
		extra := int(extraRaw) % 60
		g, err := RandomConnected(n, extra, seed)
		if err != nil {
			return false
		}
		mst, err := Kruskal(g)
		if err != nil {
			return false
		}
		if len(mst.EdgeIDs) != n-1 {
			return false
		}
		uf := NewUnionFind(n)
		for _, id := range mst.EdgeIDs {
			e := g.Edge(id)
			if !uf.Union(int(e.U), int(e.V)) {
				return false // cycle in claimed MST
			}
		}
		return uf.Sets() == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (cycle rule): for every non-MST edge e, every MST edge on the
// path between e's endpoints in the MST weighs less than e.
func TestKruskalCycleRule(t *testing.T) {
	g, err := RandomConnected(40, 80, 99)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	// Build the MST as a graph to find paths.
	b := NewBuilder(g.N())
	for _, id := range mst.EdgeIDs {
		e := g.Edge(id)
		b.AddEdge(e.U, e.V, e.Weight)
	}
	tg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.M(); id++ {
		if mst.Contains(id) {
			continue
		}
		e := g.Edge(id)
		// Walk the tree path from e.U to e.V via BFS parents.
		bfs := NewBFS(tg, e.U)
		for v := e.V; v != e.U; v = bfs.Parent[v] {
			p := bfs.Parent[v]
			var w Weight
			for _, h := range tg.Adj(v) {
				if h.To == p {
					w = h.Weight
					break
				}
			}
			if w > e.Weight {
				t.Fatalf("cycle rule violated: tree edge weight %d > non-tree edge weight %d", w, e.Weight)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions must succeed")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union must fail")
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Error("Same misbehaves")
	}
	if !uf.Union(1, 3) || !uf.Same(0, 2) {
		t.Error("transitive union failed")
	}
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
}
