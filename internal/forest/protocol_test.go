package forest

import (
	"testing"

	"repro/internal/graph"
)

// TestBFSGrowsSpanningTree: the protocol must produce a single spanning
// tree rooted at node 0, with every node learning n.
func TestBFSGrowsSpanningTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"pair", func() (graph.Topology, error) { return graph.ImplicitPath(2, 1) }},
		{"ring48", func() (graph.Topology, error) { return graph.ImplicitRing(48, 2) }},
		{"random64", func() (graph.Topology, error) { return graph.RandomConnected(64, 120, 5) }},
		{"star32", func() (graph.Topology, error) { return graph.ImplicitStar(32, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			f, total, met, err := BFS(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if total != g.N() {
				t.Errorf("total = %d, want %d", total, g.N())
			}
			if f.Trees() != 1 {
				t.Errorf("trees = %d, want 1", f.Trees())
			}
			if f.Root(0) != 0 {
				t.Errorf("root of node 0 = %d, want 0", f.Root(0))
			}
			if met.Messages == 0 && g.N() > 1 {
				t.Error("no messages recorded")
			}
		})
	}
}

// TestBFSMatchesReference checks the protocol against sequential BFS (the
// registry fixtures pin its exact transcripts): every node's depth is its
// hop distance from node 0, and its parent is the least-id neighbor one hop
// closer — the neighbor whose explore it adopted.
func TestBFSMatchesReference(t *testing.T) {
	g, err := graph.RandomConnected(80, 160, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, total, _, err := BFS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != g.N() {
		t.Errorf("total = %d, want %d", total, g.N())
	}
	ref := graph.NewBFS(g, 0)
	for v := 1; v < g.N(); v++ {
		id := graph.NodeID(v)
		if f.Depth(id) != ref.Dist[v] {
			t.Errorf("node %d: depth %d, hop distance %d", v, f.Depth(id), ref.Dist[v])
		}
		want := graph.NodeID(-1)
		for _, h := range g.Adj(id) {
			if ref.Dist[h.To] == ref.Dist[v]-1 && (want == -1 || h.To < want) {
				want = h.To
			}
		}
		if f.Parent[v] != want {
			t.Errorf("node %d: parent %d, want least-id closer neighbor %d", v, f.Parent[v], want)
		}
	}
}
