package async

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// networks are the point-to-point networks the synchronizer runs on: the
// synchronous one, and asynchronous ones made by seeded fault plans whose
// messages arrive up to d slots late.
var networks = []struct {
	name, dsl string
	d         int
}{
	{"sync", "", 0},
	{"delay-d1", "seed:3;delay:*@1-/p0.5/d1", 1},
	{"delay-d3", "seed:5;delay:*@1-/p0.3/d3", 3},
	{"skew-d2", "skew:0@1-/d2", 2},
}

// syncUnder runs Sync with the fault plan dsl installed as sim.DefaultFaults,
// the way E6 and examples/synchronizer make the network asynchronous.
func syncUnder(t *testing.T, dsl string, g graph.Topology, maxRounds int, factory func(graph.NodeID) RoundFunc) (*SyncResult, error) {
	t.Helper()
	plan, err := fault.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	old := sim.DefaultFaults
	sim.DefaultFaults = plan
	defer func() { sim.DefaultFaults = old }()
	return Sync(g, 1, maxRounds, factory)
}

// runSum drives SumDemo through Sync under the fault plan dsl and checks
// that every node computed the same value.
func runSum(t *testing.T, g graph.Topology, dsl string) (int64, *SyncResult) {
	t.Helper()
	results := make([]int64, g.N())
	var mu sync.Mutex
	res, err := syncUnder(t, dsl, g, 50*g.N()+500, SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range results {
		if r != results[0] {
			t.Fatalf("node %d computed %d, node 0 %d", v, r, results[0])
		}
	}
	return results[0], res
}

func wantSum(n int) int64 { return int64(n) * int64(n+1) / 2 }

func TestSynchronizerCorrectness(t *testing.T) {
	for _, tc := range []struct {
		spec string
		seed int64
	}{{"path:2", 1}, {"path:10", 1}, {"ring:16", 3}, {"grid:4x5", 5}, {"random:40,60", 7}, {"star:15", 9}} {
		g, err := graph.ParseSpec(tc.spec, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range networks {
			t.Run(tc.spec+"/"+nw.name, func(t *testing.T) {
				if got, _ := runSum(t, g, nw.dsl); got != wantSum(g.N()) {
					t.Errorf("sum = %d, want %d", got, wantSum(g.N()))
				}
			})
		}
	}
}

func TestSynchronizerSeedsAgree(t *testing.T) {
	// Different delay seeds must not change the computed value or the
	// simulated execution — the synchronizer hides asynchrony completely.
	g, err := graph.RandomConnected(30, 45, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, base := runSum(t, g, "")
	for seed := 1; seed < 8; seed++ {
		got, res := runSum(t, g, fmt.Sprintf("seed:%d;delay:*@1-/p0.5/d2", seed))
		if got != want || res.Rounds != base.Rounds || res.AlgMsgs != base.AlgMsgs {
			t.Errorf("seed %d: sum %d, %d rounds, %d messages; synchronous network: %d, %d, %d",
				seed, got, res.Rounds, res.AlgMsgs, want, base.Rounds, base.AlgMsgs)
		}
		if res.Metrics.Delayed == 0 {
			t.Errorf("seed %d: the plan delayed no message", seed)
		}
	}
}

func TestCorollary4MessageOverhead(t *testing.T) {
	// Acks exactly double the algorithm messages: overhead == 2, and the
	// engine's message count is the two together.
	g, err := graph.ImplicitGrid(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range networks {
		t.Run(nw.name, func(t *testing.T) {
			sum, res := runSum(t, g, nw.dsl)
			if sum != wantSum(g.N()) {
				t.Errorf("sum = %d, want %d", sum, wantSum(g.N()))
			}
			if res.AckMsgs != res.AlgMsgs {
				t.Errorf("acks %d != algorithm messages %d", res.AckMsgs, res.AlgMsgs)
			}
			if ov := res.Overhead(); ov != 2 {
				t.Errorf("overhead = %.2f, want 2", ov)
			}
			if res.Metrics.Messages != res.AlgMsgs+res.AckMsgs {
				t.Errorf("engine counted %d messages, synchronizer %d", res.Metrics.Messages, res.AlgMsgs+res.AckMsgs)
			}
		})
	}
}

func TestCorollary4ConstantTimeFactor(t *testing.T) {
	// Each simulated round costs at most 2d+3 slots: a message and its ack
	// each arrive within d+1 slots, and the pulse takes one more.
	for _, n := range []int{8, 32, 128} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range networks {
			_, res := runSum(t, g, nw.dsl)
			perRound := float64(res.Metrics.Rounds) / float64(res.Rounds)
			if perRound > float64(2*nw.d+3) {
				t.Errorf("n=%d %s: %.2f slots per round exceeds 2d+3 = %d", n, nw.name, perRound, 2*nw.d+3)
			}
		}
	}
}

func TestRoundBudget(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A program that never halts and never sends: pulses forever.
	_, err = Sync(g, 1, 10, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []sim.Message) {}
	})
	if !errors.Is(err, ErrRoundBudget) {
		t.Fatalf("err = %v, want ErrRoundBudget", err)
	}
}

func TestEmptyRoundsPulseQuickly(t *testing.T) {
	// Nodes that do nothing for k rounds then halt: each of the k+1 empty
	// rounds costs exactly one idle slot, and so does the pulse at which the
	// halted nodes stop.
	g, err := graph.ImplicitRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	res, err := Sync(g, 1, 100, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []sim.Message) {
			if round >= k {
				api.Halt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != k+1 {
		t.Errorf("rounds = %d, want %d", res.Rounds, k+1)
	}
	if res.Metrics.SlotsIdle != k+2 || res.Metrics.Rounds != k+2 {
		t.Errorf("%d idle slots in %d slots, want %d in %d", res.Metrics.SlotsIdle, res.Metrics.Rounds, k+2, k+2)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g, err := graph.RandomConnected(25, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	const plan = "seed:77;delay:*@1-/p0.5/d2"
	_, r1 := runSum(t, g, plan)
	_, r2 := runSum(t, g, plan)
	if *r1 != *r2 {
		t.Errorf("same seed and plan, different results: %+v vs %+v", r1, r2)
	}
}

func TestSendToNonNeighborFails(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Sync(g, 1, 10, func(id graph.NodeID) RoundFunc {
		return func(api Port, round int, inbox []sim.Message) {
			if id == 0 {
				api.SendTo(2, "x") // not adjacent on a path
			}
			api.Halt()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "not adjacent to 2") {
		t.Fatalf("err = %v, want a run error naming node 0 and its non-neighbour 2", err)
	}
}
