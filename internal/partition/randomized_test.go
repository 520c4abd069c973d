package partition

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/graph"
)

// graphs used across the partition tests.
func testGraphs(t *testing.T, n int) map[string]graph.Topology {
	t.Helper()
	gs := make(map[string]graph.Topology)
	var err error
	if gs["ring"], err = graph.ImplicitRing(n, 1); err != nil {
		t.Fatal(err)
	}
	side := SqrtN(n)
	if gs["grid"], err = graph.ImplicitGrid(side, (n+side-1)/side, 2); err != nil {
		t.Fatal(err)
	}
	if gs["random"], err = graph.RandomConnected(n, 2*n, 3); err != nil {
		t.Fatal(err)
	}
	if gs["star"], err = graph.ImplicitStar(n, 4); err != nil {
		t.Fatal(err)
	}
	if gs["path"], err = graph.ImplicitPath(n, 5); err != nil {
		t.Fatal(err)
	}
	return gs
}

// checkSpanningForest verifies the structural §4 guarantees on a result.
func checkSpanningForest(t *testing.T, g graph.Topology, f *forest.Forest, maxRadius int) {
	t.Helper()
	st := f.Stats()
	if st.MaxRadius > maxRadius {
		t.Errorf("radius %d exceeds bound %d", st.MaxRadius, maxRadius)
	}
	// Every node has a root and tree edges are real graph edges (validated
	// by forest.New); spanning-ness is implied by every node having an
	// outcome. Check tree-edge weights exist.
	for v, id := range f.ParentEdge {
		if id == -1 {
			continue
		}
		e := f.G.Edge(id)
		if e.U != graph.NodeID(v) && e.V != graph.NodeID(v) {
			t.Fatalf("node %d parent edge %d not incident", v, id)
		}
	}
}

func TestRandomizedSmallGraphs(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, g := range testGraphs(t, 64) {
		t.Run(name, func(t *testing.T) {
			f, met, info, err := Randomized(g, 7)
			if err != nil {
				t.Fatal(err)
			}
			checkSpanningForest(t, g, f, 4*SqrtN(g.N()))
			if info.Iterations < 2 {
				t.Errorf("iterations = %d, want >= 2", info.Iterations)
			}
			if met.Rounds <= 0 || met.Messages <= 0 {
				t.Errorf("metrics: %+v", met)
			}
		})
	}
}

func TestRandomizedTinyGraphs(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		g, err := graph.ImplicitPath(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _, err := Randomized(g, 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSpanningForest(t, g, f, 4*SqrtN(n))
	}
}

func TestRandomizedDeterministicForSeed(t *testing.T) {
	g, err := graph.RandomConnected(80, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	f1, m1, _, err := Randomized(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	f2, m2, _, err := Randomized(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Messages != m2.Messages || m1.Rounds != m2.Rounds {
		t.Errorf("metrics differ across identical runs: %+v vs %+v", m1, m2)
	}
	for v := range f1.Parent {
		if f1.Parent[v] != f2.Parent[v] {
			t.Fatalf("forests differ at node %d", v)
		}
	}
}

func TestRandomizedSeedsVary(t *testing.T) {
	g, err := graph.RandomConnected(100, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	f1, _, _, err := Randomized(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, _, err := Randomized(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range f1.Parent {
		if f1.Parent[v] != f2.Parent[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

func TestRandomizedExpectedTreeCount(t *testing.T) {
	// Theorem 1: E[#trees] = O(√n). Average over seeds and check a generous
	// constant (the paper's constant is about sum 1/prod E_i ≈ 1.4).
	const n = 256
	g, err := graph.RandomConnected(n, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const seeds = 12
	for s := int64(0); s < seeds; s++ {
		f, _, _, err := Randomized(g, s)
		if err != nil {
			t.Fatal(err)
		}
		total += f.Trees()
	}
	avg := float64(total) / seeds
	if avg > 6*float64(SqrtN(n)) {
		t.Errorf("average trees %.1f > 6√n = %d", avg, 6*SqrtN(n))
	}
}

func TestRandomizedTimeBound(t *testing.T) {
	// Worst-case time O(√n log* n): check rounds ≤ c·√n for a generous c
	// (iterations ≈ ln* n + 2, each ≈ 12√n rounds).
	for _, n := range []int{64, 256} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, met, info, err := Randomized(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		bound := (12*SqrtN(n) + 10) * info.Iterations
		if met.Rounds > bound {
			t.Errorf("n=%d: rounds %d > bound %d", n, met.Rounds, bound)
		}
	}
}

func TestLasVegasAlwaysBalanced(t *testing.T) {
	const n = 100
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, g := range testGraphs(t, n) {
		t.Run(name, func(t *testing.T) {
			f, _, info, err := RandomizedLasVegas(g, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.CheckPartition(2*SqrtN(n), 4*SqrtN(n)); err != nil {
				t.Errorf("las vegas partition out of bounds: %v", err)
			}
			if len(info.RootOrder) != f.Trees() {
				t.Errorf("root order has %d entries for %d trees", len(info.RootOrder), f.Trees())
			}
			roots := make(map[graph.NodeID]bool)
			for _, r := range f.Roots() {
				roots[r] = true
			}
			for _, r := range info.RootOrder {
				if !roots[r] {
					t.Errorf("scheduled root %d is not a forest core", r)
				}
			}
		})
	}
}

func TestSqrtN(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {100, 10}, {101, 11},
	}
	for _, tt := range tests {
		if got := SqrtN(tt.n); got != tt.want {
			t.Errorf("SqrtN(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestIterationProbs(t *testing.T) {
	probs := iterationProbs(8) // √n = 8
	if probs[len(probs)-1] != 1 {
		t.Errorf("last probability = %v, want 1", probs[len(probs)-1])
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] <= probs[i-1] {
			t.Errorf("probabilities not increasing: %v", probs)
		}
	}
	if len(probs) > 8 {
		t.Errorf("too many iterations (%d) for a tower sequence", len(probs))
	}
	// √n = 1: the very first probability is already 1.
	if p1 := iterationProbs(1); len(p1) != 1 || p1[0] != 1 {
		t.Errorf("iterationProbs(1) = %v", p1)
	}
}
