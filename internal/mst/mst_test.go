package mst

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func kruskal(t *testing.T, g graph.Topology) *graph.MST {
	t.Helper()
	m, err := graph.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultimediaMSTMatchesKruskal(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"path8", func() (graph.Topology, error) { return graph.ImplicitPath(8, 3) }},
		{"ring24", func() (graph.Topology, error) { return graph.ImplicitRing(24, 5) }},
		{"grid6x5", func() (graph.Topology, error) { return graph.ImplicitGrid(6, 5, 7) }},
		{"random50", func() (graph.Topology, error) { return graph.RandomConnected(50, 120, 9) }},
		{"random90sparse", func() (graph.Topology, error) { return graph.RandomConnected(90, 15, 11) }},
		{"complete14", func() (graph.Topology, error) { return graph.Complete(14, 13) }},
		{"star30", func() (graph.Topology, error) { return graph.ImplicitStar(30, 15) }},
		{"torus5x5", func() (graph.Topology, error) { return graph.ImplicitTorus(5, 5, 17) }},
		{"binarytree31", func() (graph.Topology, error) { return graph.ImplicitBinaryTree(31, 19) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Multimedia(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := kruskal(t, g)
			if !res.MST.Equal(want) {
				t.Errorf("MST differs: got %v (w=%d), want %v (w=%d)",
					res.MST.EdgeIDs, res.MST.Total, want.EdgeIDs, want.Total)
			}
			if res.InitialFragments < 1 {
				t.Errorf("initial fragments = %d", res.InitialFragments)
			}
		})
	}
}

func TestMultimediaMSTManySeeds(t *testing.T) {
	// Same graph, several weight assignments: the MST must match Kruskal's
	// on each (distinct weights make it unique).
	for seed := int64(0); seed < 6; seed++ {
		g, err := graph.RandomConnected(40, 100, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Multimedia(g, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := kruskal(t, g); !res.MST.Equal(want) {
			t.Errorf("seed %d: MST mismatch", seed)
		}
	}
}

func TestMultimediaFromRandomizedForest(t *testing.T) {
	// Ablation: the merge stages work from any spanning forest partition,
	// but only MST-subtree forests guarantee an exact MST. The randomized
	// partition's trees are arbitrary BFS trees, so the merge produces a
	// spanning tree that contains every Kruskal edge between current
	// fragments but may keep non-MST tree edges. Here we verify it still
	// produces a valid spanning structure of n-1 edges.
	g, err := graph.RandomConnected(60, 90, 33)
	if err != nil {
		t.Fatal(err)
	}
	f, pm, _, err := partition.RandomizedLasVegas(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultimediaFromForest(g, 4, f, pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MST.EdgeIDs) != g.N()-1 {
		t.Fatalf("assembled %d edges, want %d", len(res.MST.EdgeIDs), g.N()-1)
	}
	uf := graph.NewUnionFind(g.N())
	for _, id := range res.MST.EdgeIDs {
		e := g.Edge(id)
		if !uf.Union(int(e.U), int(e.V)) {
			t.Fatalf("edge %d closes a cycle", id)
		}
	}
	if uf.Sets() != 1 {
		t.Error("result is not spanning")
	}
	if res.MST.Total < kruskal(t, g).Total {
		t.Error("spanning tree lighter than the MST (impossible)")
	}
}

func TestBoruvkaBaselineResult(t *testing.T) {
	g, err := graph.RandomConnected(50, 70, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Boruvka(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := kruskal(t, g); !res.MST.Equal(want) {
		t.Error("Boruvka baseline MST mismatch")
	}
	if res.Merge.Rounds != 0 {
		t.Error("baseline should have no merge-stage costs")
	}
}

func TestMSTPhaseCount(t *testing.T) {
	// Phases are bounded by log2 of the initial fragment count.
	g, err := graph.RandomConnected(100, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Multimedia(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1
	for 1<<bound < res.InitialFragments {
		bound++
	}
	if res.Phases > bound+1 {
		t.Errorf("%d phases for %d fragments (bound %d)", res.Phases, res.InitialFragments, bound)
	}
}

func TestMSTDeterministic(t *testing.T) {
	g, err := graph.RandomConnected(45, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Multimedia(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Multimedia(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.MST.Equal(b.MST) {
		t.Error("MST varies with seed (deterministic algorithm)")
	}
	if a.Total.Messages != b.Total.Messages {
		t.Errorf("message counts differ: %d vs %d", a.Total.Messages, b.Total.Messages)
	}
}

func TestMSTTiny(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Multimedia(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MST.EdgeIDs) != 1 || res.MST.EdgeIDs[0] != 0 {
		t.Errorf("MST = %v", res.MST.EdgeIDs)
	}
}
