package size

import (
	"math/bits"
	"runtime"
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

// heapSampler is a sim.Recorder that samples the live heap during a run: at
// RunStart, at every 2¹⁴th RoundEnd and at RunEnd it forces a collection and
// keeps the largest HeapAlloc it reads.
type heapSampler struct {
	rounds int
	peak   uint64
}

func (s *heapSampler) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.peak = max(s.peak, ms.HeapAlloc)
}

func (s *heapSampler) RunStart(int, sim.Engine, int, int) { s.sample() }
func (*heapSampler) BeginPhase(sim.Phase, int) int64      { return 0 }
func (*heapSampler) EndPhase(sim.Phase, int, int, int64)  {}
func (*heapSampler) FastForward(int, int)                 {}
func (s *heapSampler) RunEnd(*sim.Metrics)                { s.sample() }
func (s *heapSampler) RoundEnd(int, int, sim.SlotState, *sim.Metrics) {
	if s.rounds++; s.rounds%(1<<14) == 0 {
		s.sample()
	}
}

// TestCensusBytesPerNode gates the live heap a census of a 10⁵-node ring
// holds beyond its topology: the engine's node arrays and shard arenas and
// the protocol's machines and results. Both forms read 153 B/node when this
// was written; a form fails only past both base/0.75 and base+16 B/node.
func TestCensusBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement skipped in -short mode")
	}
	const n, base = 100_000, 153.0
	for _, spec := range []string{"ring:100000", "mat:ring:100000"} {
		g, err := graph.ParseSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var topo runtime.MemStats
		runtime.ReadMemStats(&topo)
		var s heapSampler
		res, err := Census(g, 1, sim.WithWorkers(1), sim.WithRecorder(&s))
		if err != nil {
			t.Fatal(err)
		}
		if res.N != n {
			t.Fatalf("%s: census = %d, want %d", spec, res.N, n)
		}
		perNode := float64(s.peak-topo.HeapAlloc) / n
		t.Logf("%s: %.2f B/node", spec, perNode)
		if bound := max(base/0.75, base+16); perNode > bound {
			t.Errorf("%s: a census holds %.2f B/node, want at most %.2f", spec, perNode, bound)
		}
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
