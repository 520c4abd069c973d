package repro

import (
	"testing"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/size"
)

// TestFullPipeline exercises the whole stack on one network: both
// partitions, the function computation by all three architectures, the
// distributed MST, and the size algorithms — asserting they agree with each
// other and with the sequential references.
func TestFullPipeline(t *testing.T) {
	const n = 81
	g, err := graph.RandomConnected(n, 2*n, 77)
	if err != nil {
		t.Fatal(err)
	}
	in := func(v graph.NodeID) int64 { return (int64(v)*97 + 5) % 1000 }
	want := globalfunc.Reference(g, graph5Sum(), in)

	// Partitions: both must satisfy their structural guarantees.
	fd, _, _, err := partition.Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := graph.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.SubtreeOfMST(kr); err != nil {
		t.Errorf("deterministic partition: %v", err)
	}
	fr, _, _, err := partition.RandomizedLasVegas(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.CheckPartition(2*partition.SqrtN(n), 4*partition.SqrtN(n)); err != nil {
		t.Errorf("randomized partition: %v", err)
	}

	// The function computed by every architecture must agree.
	values := map[string]int64{}
	mm, err := globalfunc.Multimedia(g, 1, graph5Sum(), in,
		globalfunc.VariantDeterministic, globalfunc.StageCapetanakis)
	if err != nil {
		t.Fatal(err)
	}
	values["multimedia"] = mm.Value
	p2p, err := globalfunc.PointToPoint(g, 1, graph5Sum(), in)
	if err != nil {
		t.Fatal(err)
	}
	values["p2p"] = p2p.Value
	bc, err := globalfunc.BroadcastOnly(g, 1, graph5Sum(), in, globalfunc.StageCapetanakis)
	if err != nil {
		t.Fatal(err)
	}
	values["broadcast"] = bc.Value
	//mmlint:commutative independent per-primitive equality checks
	for name, v := range values {
		if v != want {
			t.Errorf("%s computed %d, want %d", name, v, want)
		}
	}

	// MST equals Kruskal's.
	tree, err := mst.Multimedia(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.MST.Equal(kr) {
		t.Error("distributed MST differs from Kruskal")
	}

	// Size algorithms.
	ex, err := size.Exact(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.N != n {
		t.Errorf("exact size = %d, want %d", ex.N, n)
	}
	est, err := size.Estimate(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimate < 1 {
		t.Errorf("estimate = %d", est.Estimate)
	}
	census, err := size.Census(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if census.N != n {
		t.Errorf("census = %d, want %d", census.N, n)
	}
}

func graph5Sum() globalfunc.Op { return globalfunc.Sum }

// TestEngineSlotConservation checks the simulator invariant that every
// round resolves exactly one slot: idle + success + collision == rounds.
func TestEngineSlotConservation(t *testing.T) {
	g, err := graph.ImplicitRing(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, met, _, err := partition.Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := met.SlotsIdle + met.SlotsSuccess + met.SlotsCollision
	if slots != int64(met.Rounds) {
		t.Errorf("slots %d != rounds %d", slots, met.Rounds)
	}
}

// TestManyTopologiesSmoke runs the deterministic partition + MST across a
// broad topology zoo at small sizes — a regression net for protocol corner
// cases (high degree, low diameter, trees, mutual-MWOE-heavy rings).
func TestManyTopologiesSmoke(t *testing.T) {
	zoo := []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"ring9", func() (graph.Topology, error) { return graph.ImplicitRing(9, 2) }},
		{"path17", func() (graph.Topology, error) { return graph.ImplicitPath(17, 3) }},
		{"grid3x9", func() (graph.Topology, error) { return graph.ImplicitGrid(3, 9, 4) }},
		{"torus4x4", func() (graph.Topology, error) { return graph.ImplicitTorus(4, 4, 5) }},
		{"complete9", func() (graph.Topology, error) { return graph.Complete(9, 6) }},
		{"star33", func() (graph.Topology, error) { return graph.ImplicitStar(33, 7) }},
		{"btree15", func() (graph.Topology, error) { return graph.ImplicitBinaryTree(15, 8) }},
		{"ray4x4", func() (graph.Topology, error) { return graph.Ray(4, 4, 9) }},
		{"random33", func() (graph.Topology, error) { return graph.RandomConnected(33, 66, 10) }},
	}
	for _, tc := range zoo {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := mst.Multimedia(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graph.Kruskal(g)
			if err != nil {
				t.Fatal(err)
			}
			if !res.MST.Equal(want) {
				t.Error("MST mismatch")
			}
			f, _, _, err := partition.Randomized(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			if f.Stats().MaxRadius > 4*partition.SqrtN(g.N()) {
				t.Error("randomized radius bound violated")
			}
		})
	}
}
