package size

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestCensusCountsExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (graph.Topology, error)
		n    int
	}{
		{"ring200", func() (graph.Topology, error) { return graph.ImplicitRing(200, 1) }, 200},
		{"grid12x12", func() (graph.Topology, error) { return graph.ImplicitGrid(12, 12, 2) }, 144},
		{"random81", func() (graph.Topology, error) { return graph.RandomConnected(81, 160, 3) }, 81},
		{"path2", func() (graph.Topology, error) { return graph.ImplicitPath(2, 4) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Census(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.N != tc.n {
				t.Errorf("census = %d, want %d", res.N, tc.n)
			}
			if res.Metrics.Slots() != 0 {
				t.Errorf("census used %d channel slots", res.Metrics.Slots())
			}
		})
	}
}

// TestEstimateSlotAccounting checks each run against the protocol's own
// arithmetic (the registry fixtures pin the exact transcripts): an estimate
// 2^k takes k probe slots, the last one idle, plus the idle halting round,
// and never a point-to-point message.
func TestEstimateSlotAccounting(t *testing.T) {
	g, err := graph.RandomConnected(120, 240, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		res, err := Estimate(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		k := bits.TrailingZeros64(uint64(res.Estimate))
		m := res.Metrics
		if res.Estimate != 1<<k || res.Rounds != k+1 || m.SlotsIdle != 2 ||
			m.SlotsIdle+m.Slots() != int64(m.Rounds) || m.Messages != 0 {
			t.Errorf("seed %d: estimate %d in %d rounds, metrics %+v", seed, res.Estimate, res.Rounds, m)
		}
	}
}

// TestGreenbergLadnerEstimate: every node reaches the same estimate, and the
// median across seeds is within a constant factor of n.
func TestGreenbergLadnerEstimate(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ratios []float64
		for s := int64(0); s < 21; s++ {
			res, err := sim.RunStep(g, GLStepProgram(), sim.WithSeed(s))
			if err != nil {
				t.Fatal(err)
			}
			est := res.Results[0].(int64)
			for v := 1; v < n; v++ {
				if res.Results[v] != est {
					t.Fatalf("nodes disagree on the estimate")
				}
			}
			ratios = append(ratios, float64(est)/float64(n))
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		if med < 1.0/16 || med > 16 {
			t.Errorf("n=%d: median estimate ratio %.3f outside [1/16, 16]", n, med)
		}
	}
}
