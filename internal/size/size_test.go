package size

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestExactComputesN(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (graph.Topology, error)
		n    int
	}{
		{"path2", func() (graph.Topology, error) { return graph.ImplicitPath(2, 1) }, 2},
		{"ring16", func() (graph.Topology, error) { return graph.ImplicitRing(16, 1) }, 16},
		{"ring30", func() (graph.Topology, error) { return graph.ImplicitRing(30, 1) }, 30},
		{"grid5x8", func() (graph.Topology, error) { return graph.ImplicitGrid(5, 8, 3) }, 40},
		{"random77", func() (graph.Topology, error) { return graph.RandomConnected(77, 100, 5) }, 77},
		{"star25", func() (graph.Topology, error) { return graph.ImplicitStar(25, 7) }, 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exact(g, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.N != tc.n {
				t.Errorf("computed n = %d, want %d", res.N, tc.n)
			}
			if res.Phases < 1 {
				t.Errorf("phases = %d", res.Phases)
			}
		})
	}
}

func TestExactWithLargeIDUniverse(t *testing.T) {
	// The algorithm must tolerate a loose id bound (the paper's |id| can
	// exceed n).
	g, err := graph.ImplicitRing(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(g, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 20 {
		t.Errorf("computed n = %d, want 20", res.N)
	}
}

func TestExactRejectsTightUniverse(t *testing.T) {
	g, err := graph.ImplicitRing(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(g, 1, 10); err == nil {
		t.Error("expected error for id universe below n")
	}
}

func TestEstimateDistribution(t *testing.T) {
	// §7.4: 2^k is within a constant factor of n w.h.p. Check the median
	// ratio over seeds for several sizes.
	for _, n := range []int{32, 128, 512} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ratios []float64
		for s := int64(0); s < 15; s++ {
			res, err := Estimate(g, s)
			if err != nil {
				t.Fatal(err)
			}
			ratios = append(ratios, float64(res.Estimate)/float64(n))
			// O(log n) slots.
			if res.Rounds > 4*31 {
				t.Errorf("n=%d seed=%d: %d rounds", n, s, res.Rounds)
			}
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		if med < 1.0/16 || med > 16 {
			t.Errorf("n=%d: median estimate ratio %.2f outside [1/16,16]", n, med)
		}
	}
}

// TestEstimateSurvivesCrashes: a crash-stopped node records no estimate, so
// the survivors alone must agree — whether the crashed node is node 0 or
// any other.
func TestEstimateSurvivesCrashes(t *testing.T) {
	g, err := graph.ImplicitRing(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"crash:0@1", "crash:3@1"} {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		old := sim.DefaultFaults
		sim.DefaultFaults = plan
		res, err := Estimate(g, 1)
		sim.DefaultFaults = old
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.Estimate < 2 || res.Estimate&(res.Estimate-1) != 0 || res.Metrics.Crashed != 1 {
			t.Errorf("%s: estimate %d with %d crashed, want a power of two >= 2 with 1", spec, res.Estimate, res.Metrics.Crashed)
		}
	}
}

func TestEstimateDeterministicPerSeed(t *testing.T) {
	g, err := graph.ImplicitRing(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Estimate(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.Rounds != b.Rounds {
		t.Error("same seed produced different estimates")
	}
}
