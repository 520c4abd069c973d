package partition

import (
	"testing"

	"repro/internal/graph"
)

func TestDeterministicSmallGraphs(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, g := range testGraphs(t, 64) {
		t.Run(name, func(t *testing.T) {
			f, met, info, err := Deterministic(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Finished {
				t.Error("run did not finish")
			}
			st := f.Stats()
			// Paper: after ⌈log2(n)/2⌉ phases every fragment has size ≥ √n
			// (unless it is the whole graph) and radius < 2^{P+4}.
			sq := SqrtN(g.N())
			if st.MinSize < sq && st.Trees > 1 {
				t.Errorf("min fragment size %d < √n = %d with %d trees", st.MinSize, sq, st.Trees)
			}
			if st.Trees > sq {
				t.Errorf("%d trees exceeds √n = %d", st.Trees, sq)
			}
			if st.MaxRadius > 16*sq {
				t.Errorf("radius %d exceeds 16√n = %d", st.MaxRadius, 16*sq)
			}
			// §3 property (1): every tree is a subtree of the MST.
			mst, err := graph.Kruskal(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.SubtreeOfMST(mst); err != nil {
				t.Errorf("not a subforest of the MST: %v", err)
			}
			if met.Messages == 0 {
				t.Error("no messages recorded")
			}
		})
	}
}

func TestDeterministicTinyGraphs(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		g, err := graph.ImplicitPath(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _, err := Deterministic(g, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mst, err := graph.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubtreeOfMST(mst); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	g, err := graph.RandomConnected(60, 90, 4)
	if err != nil {
		t.Fatal(err)
	}
	f1, m1, _, err := Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, m2, _, err := Deterministic(g, 99) // different seed: algorithm uses no randomness
	if err != nil {
		t.Fatal(err)
	}
	if m1.Messages != m2.Messages || m1.Rounds != m2.Rounds {
		t.Errorf("deterministic algorithm varied with the seed: %+v vs %+v", m1, m2)
	}
	for v := range f1.Parent {
		if f1.Parent[v] != f2.Parent[v] || f1.Root(graph.NodeID(v)) != f2.Root(graph.NodeID(v)) {
			t.Fatalf("forests differ at node %d", v)
		}
	}
}

func TestBoruvkaEqualsKruskal(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"ring16", func() (graph.Topology, error) { return graph.ImplicitRing(16, 3) }},
		{"grid6x6", func() (graph.Topology, error) { return graph.ImplicitGrid(6, 6, 5) }},
		{"random40", func() (graph.Topology, error) { return graph.RandomConnected(40, 80, 7) }},
		{"random70sparse", func() (graph.Topology, error) { return graph.RandomConnected(70, 10, 11) }},
		{"complete12", func() (graph.Topology, error) { return graph.Complete(12, 13) }},
		{"star20", func() (graph.Topology, error) { return graph.ImplicitStar(20, 17) }},
		{"path30", func() (graph.Topology, error) { return graph.ImplicitPath(30, 19) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			f, _, _, err := Boruvka(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if f.Trees() != 1 {
				t.Fatalf("Boruvka left %d fragments, want 1", f.Trees())
			}
			mst, err := graph.Kruskal(g)
			if err != nil {
				t.Fatal(err)
			}
			var total graph.Weight
			count := 0
			for _, id := range f.ParentEdge {
				if id == -1 {
					continue
				}
				if !mst.Contains(id) {
					t.Fatalf("tree edge %d not in the unique MST", id)
				}
				total += g.Edge(id).Weight
				count++
			}
			if count != g.N()-1 || total != mst.Total {
				t.Errorf("tree has %d edges weight %d; MST has %d edges weight %d",
					count, total, g.N()-1, mst.Total)
			}
		})
	}
}

func TestDeterministicPhaseCount(t *testing.T) {
	tests := []struct{ n, want int }{
		{2, 1}, {4, 1}, {16, 2}, {64, 3}, {256, 4}, {1024, 5}, {4096, 6},
	}
	for _, tt := range tests {
		if got := DeterministicPhaseCount(tt.n); got != tt.want {
			t.Errorf("DeterministicPhaseCount(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestCVStepsFor(t *testing.T) {
	for _, n := range []int{8, 64, 1024, 1 << 20} {
		s := cvStepsFor(n)
		if s < 1 || s > 8 {
			t.Errorf("cvStepsFor(%d) = %d, expected a small log* count", n, s)
		}
		// Verify the computed count actually suffices for the worst case.
		maxVal := int64(n - 1)
		cur := maxVal
		for i := 0; i < s; i++ {
			// Worst-case new color after one CV step given colors < cur+1.
			b := 0
			for v := cur; v > 0; v >>= 1 {
				b++
			}
			cur = int64(2*(b-1) + 1)
		}
		if cur > 5 {
			t.Errorf("cvStepsFor(%d) = %d leaves max color %d", n, s, cur)
		}
	}
}

func TestCVColorDistributedMatchesCombinatorial(t *testing.T) {
	// The distributed cvColor must agree with internal/coloring's step.
	for own := int64(0); own < 64; own++ {
		for father := int64(0); father < 64; father++ {
			if own == father {
				continue
			}
			got := cvColor(own, father)
			if got < 0 || got > 2*6+1 {
				t.Fatalf("cvColor(%d,%d) = %d out of range", own, father, got)
			}
		}
	}
	// Adjacency preservation (the defining property).
	for child := int64(0); child < 32; child++ {
		for father := int64(0); father < 32; father++ {
			if child == father {
				continue
			}
			for grand := int64(0); grand < 32; grand++ {
				if grand == father {
					continue
				}
				if cvColor(child, father) == cvColor(father, grand) {
					t.Fatalf("CV collision: %d %d %d", child, father, grand)
				}
			}
		}
	}
}

func TestEncodeRootColor(t *testing.T) {
	for _, isRoot := range []bool{false, true} {
		for c := int64(0); c < 6; c++ {
			r, c2 := decodeRootColor(encodeRootColor(isRoot, c))
			if r != isRoot || c2 != c {
				t.Errorf("round trip (%v,%d) -> (%v,%d)", isRoot, c, r, c2)
			}
		}
	}
}

func TestDeterministicLargerRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	g, err := graph.RandomConnected(256, 512, 21)
	if err != nil {
		t.Fatal(err)
	}
	f, _, _, err := Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := graph.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubtreeOfMST(mst); err != nil {
		t.Error(err)
	}
	st := f.Stats()
	if st.Trees > 1 && st.MinSize < 16 {
		t.Errorf("min size %d < √256", st.MinSize)
	}
}

func TestParallelMWOEVariant(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, g := range testGraphs(t, 64) {
		t.Run(name, func(t *testing.T) {
			f, met, info, err := DeterministicParallelMWOE(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Finished {
				t.Error("run did not finish")
			}
			mst, err := graph.Kruskal(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.SubtreeOfMST(mst); err != nil {
				t.Errorf("not a subforest of the MST: %v", err)
			}
			// Same structural guarantees as the sequential variant.
			st := f.Stats()
			if st.Trees > 1 && st.MinSize < SqrtN(g.N()) {
				t.Errorf("min size %d < sqrt(n)", st.MinSize)
			}
			// The variant must not be slower in rounds than sequential.
			fs, ms, _, err := Deterministic(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			_ = fs
			if met.Rounds > ms.Rounds {
				t.Errorf("parallel variant used more rounds (%d) than sequential (%d)", met.Rounds, ms.Rounds)
			}
		})
	}
}

func TestParallelAndSequentialAgreeOnFragments(t *testing.T) {
	// Both variants select MWOEs by the same rule, so the resulting
	// fragment partitions must be identical.
	g, err := graph.RandomConnected(80, 140, 6)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, _, err := Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, _, err := DeterministicParallelMWOE(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fs.Parent {
		if fs.Root(graph.NodeID(v)) != fp.Root(graph.NodeID(v)) {
			t.Fatalf("fragment assignment differs at node %d", v)
		}
	}
}
