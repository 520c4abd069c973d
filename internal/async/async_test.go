package async

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
)

func runSum(t *testing.T, g graph.Topology, seed int64) (int64, *Metrics) {
	t.Helper()
	results := make([]int64, g.N())
	var mu sync.Mutex
	inputs := func(v graph.NodeID) int64 { return int64(v) + 1 }
	met, err := Run(g, seed, 50*g.N()+500, SumDemo(inputs, results, &mu))
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N(); v++ {
		if results[v] != results[0] {
			t.Fatalf("node %d got %d, node 0 got %d", v, results[v], results[0])
		}
	}
	return results[0], met
}

func wantSum(n int) int64 { return int64(n) * int64(n+1) / 2 }

func TestSynchronizerCorrectness(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (graph.Topology, error)
		n    int
	}{
		{"path2", func() (graph.Topology, error) { return graph.ImplicitPath(2, 1) }, 2},
		{"path10", func() (graph.Topology, error) { return graph.ImplicitPath(10, 1) }, 10},
		{"ring16", func() (graph.Topology, error) { return graph.ImplicitRing(16, 3) }, 16},
		{"grid4x5", func() (graph.Topology, error) { return graph.ImplicitGrid(4, 5, 5) }, 20},
		{"random40", func() (graph.Topology, error) { return graph.RandomConnected(40, 60, 7) }, 40},
		{"star15", func() (graph.Topology, error) { return graph.ImplicitStar(15, 9) }, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runSum(t, g, 42)
			if got != wantSum(tc.n) {
				t.Errorf("sum = %d, want %d", got, wantSum(tc.n))
			}
		})
	}
}

func TestSynchronizerSeedsAgree(t *testing.T) {
	// Different delay seeds must not change the computed value — the
	// synchronizer hides asynchrony completely.
	g, err := graph.RandomConnected(30, 45, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runSum(t, g, 0)
	for seed := int64(1); seed < 8; seed++ {
		got, _ := runSum(t, g, seed)
		if got != want {
			t.Errorf("seed %d: sum = %d, want %d", seed, got, want)
		}
	}
}

func TestCorollary4MessageOverhead(t *testing.T) {
	// Acks exactly double the algorithm messages: overhead == 2.
	g, err := graph.ImplicitGrid(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, met := runSum(t, g, 5)
	if met.AckMsgs != met.AlgMsgs {
		t.Errorf("acks %d != algorithm messages %d", met.AckMsgs, met.AlgMsgs)
	}
	if ov := met.Overhead(); ov != 2 {
		t.Errorf("overhead = %.2f, want 2", ov)
	}
}

func TestCorollary4ConstantTimeFactor(t *testing.T) {
	// Each simulated round costs a bounded number of slots: a message and
	// its ack each take at most one time unit, so a round's busy period
	// spans at most a small constant number of slots.
	for _, n := range []int{8, 32, 128} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, met := runSum(t, g, 3)
		perRound := float64(met.Time) / float64(met.Rounds)
		if perRound > 6 {
			t.Errorf("n=%d: %.2f slots per round exceeds constant bound", n, perRound)
		}
	}
}

func TestRoundBudget(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A program that never halts and never sends: pulses forever.
	_, err = Run(g, 1, 10, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []Message) {}
	})
	if !errors.Is(err, ErrRoundBudget) {
		t.Fatalf("err = %v, want ErrRoundBudget", err)
	}
}

func TestEmptyRoundsPulseQuickly(t *testing.T) {
	// Nodes that do nothing for k rounds then halt: each empty round costs
	// exactly one idle slot.
	g, err := graph.ImplicitRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	met, err := Run(g, 1, 100, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []Message) {
			if round >= k {
				api.Halt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds != k+1 {
		t.Errorf("rounds = %d, want %d", met.Rounds, k+1)
	}
	if met.IdleSlots != int64(k) {
		t.Errorf("idle slots = %d, want %d", met.IdleSlots, k)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g, err := graph.RandomConnected(25, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, m1 := runSum(t, g, 77)
	_, m2 := runSum(t, g, 77)
	if *m1 != *m2 {
		t.Errorf("same seed, different metrics: %+v vs %+v", m1, m2)
	}
}

func TestSendToUnknownNeighborPanics(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_, _ = Run(g, 1, 10, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []Message) {
			if id == 0 {
				api.SendTo(2, "x") // not adjacent on a path
			}
			api.Halt()
		}
	})
}
