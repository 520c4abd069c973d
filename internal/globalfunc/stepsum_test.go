package globalfunc

import (
	"testing"

	"repro/internal/graph"
)

// TestPointToPointMatchesReference checks the BFS-tree aggregate against
// the sequential fold (the registry fixtures pin its exact transcripts):
// the reference value on every topology and operator, in Θ(eccentricity of
// the leader) rounds, with the channel untouched.
func TestPointToPointMatchesReference(t *testing.T) {
	in := func(v graph.NodeID) int64 { return (int64(v)*97 + 5) % 1000 }
	for _, tc := range []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"ring33", func() (graph.Topology, error) { return graph.ImplicitRing(33, 1) }},
		{"grid6x7", func() (graph.Topology, error) { return graph.ImplicitGrid(6, 7, 2) }},
		{"random50", func() (graph.Topology, error) { return graph.RandomConnected(50, 100, 3) }},
		{"star30", func() (graph.Topology, error) { return graph.ImplicitStar(30, 4) }},
		{"ray5x4", func() (graph.Topology, error) { return graph.Ray(5, 4, 5) }},
		{"path2", func() (graph.Topology, error) { return graph.ImplicitPath(2, 6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ecc := graph.NewBFS(g, 0).Eccentricity()
			for _, op := range []Op{Sum, Min, Xor} {
				res, err := PointToPoint(g, 1, op, in)
				if err != nil {
					t.Fatalf("%s: %v", op.Name, err)
				}
				if want := Reference(g, op, in); res.Value != want {
					t.Errorf("%s: value %d, reference %d", op.Name, res.Value, want)
				}
				if r := res.Total.Rounds; r < 2*ecc || r > 5*ecc+10 {
					t.Errorf("%s: %d rounds for leader eccentricity %d", op.Name, r, ecc)
				}
				if res.Total.Slots() != 0 {
					t.Errorf("%s: %d channel slots", op.Name, res.Total.Slots())
				}
			}
		})
	}
}
