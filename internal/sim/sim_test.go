package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

func ring(t *testing.T, n int) graph.Topology {
	t.Helper()
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func path(t *testing.T, n int) graph.Topology {
	t.Helper()
	g, err := graph.ImplicitPath(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMessageDelivery(t *testing.T) {
	// Node 1 sends its id to every neighbor in round 0; neighbors check
	// receipt in round 1.
	g := path(t, 3)
	res, err := RunStep(g, func(c *StepCtx) Machine {
		var got any
		return &stepFuncs{
			step: func(in Input) bool {
				if c.ID() == 1 {
					if in.Round == 0 {
						for l := range c.Adj() {
							c.Send(l, int(c.ID()))
						}
					}
					return in.Round == 1
				}
				if in.Round == 0 {
					return false
				}
				if len(in.Msgs) != 1 {
					c.Failf("node %d got %d msgs, want 1", c.ID(), len(in.Msgs))
				}
				m := in.Msgs[0]
				if m.From != 1 || m.Payload.(int) != 1 {
					c.Failf("node %d got %+v", c.ID(), m)
				}
				got = m.Payload
				return true
			},
			result: func() any { return got },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Metrics.Messages)
	}
	if res.Results[0] != 1 || res.Results[2] != 1 {
		t.Errorf("results = %v", res.Results)
	}
}

func TestBroadcastHeardByAll(t *testing.T) {
	g := ring(t, 7)
	res, err := RunStep(g, func(c *StepCtx) Machine {
		var heard Payload
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					if c.ID() == 3 {
						c.Broadcast("hello")
					}
					return false
				}
				heard = in.Slot.Payload
				return true
			},
			result: func() any { return heard },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Results {
		if r != "hello" {
			t.Errorf("node %d heard %v", v, r)
		}
	}
}

func TestProgramErrorAborts(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := RunStep(ring(t, 4), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool {
			if c.ID() == 2 {
				c.Failf("%w", wantErr)
			}
			return false // would run forever without the abort
		}}
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if want := "sim: node 2: boom"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int) {
		g, err := graph.RandomConnected(20, 20, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStep(g, chatterMachine(10), WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Messages, int(res.Metrics.SlotsCollision)
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", m1, c1, m2, c2)
	}
}

func TestPerNodeRNGsDiffer(t *testing.T) {
	res, err := RunStep(ring(t, 8), func(c *StepCtx) Machine {
		draw := c.Rand().Int63()
		return &stepFuncs{
			step:   func(Input) bool { return true },
			result: func() any { return draw },
		}
	}, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[any]bool)
	for _, r := range res.Results {
		if seen[r] {
			t.Fatal("two nodes drew identical first random values")
		}
		seen[r] = true
	}
}

func TestDoubleBroadcastPanics(t *testing.T) {
	_, err := RunStep(path(t, 2), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Broadcast(1)
			c.Broadcast(2)
			return true
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "wrote the channel twice") {
		t.Fatalf("err = %v, want double-broadcast error", err)
	}
}

func TestSendToAndLink(t *testing.T) {
	_, err := RunStep(path(t, 3), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if in.Round == 0 {
				if c.ID() == 0 {
					if _, ok := c.Link(2); ok {
						c.Failf("node 0 should not be adjacent to 2")
					}
					c.SendTo(1, "x")
				}
				return false
			}
			if c.ID() == 1 {
				if len(in.Msgs) != 1 || in.Msgs[0].Payload != "x" {
					c.Failf("node 1 inbox: %v", in.Msgs)
				}
				// LinkOf must give back the local index of the arrival edge.
				l := c.LinkOf(in.Msgs[0].EdgeID)
				if c.Adj()[l].To != 0 {
					c.Failf("LinkOf points at wrong neighbor")
				}
			}
			return true
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaggeredHalting(t *testing.T) {
	// Node v halts in round v; the engine must keep running until the last.
	res, err := RunStep(ring(t, 6), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(in Input) bool { return in.Round == int(c.ID()) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 6 {
		t.Errorf("Rounds = %d, want 6", res.Metrics.Rounds)
	}
}

func TestSlotStateString(t *testing.T) {
	if SlotIdle.String() != "idle" || SlotSuccess.String() != "success" ||
		SlotCollision.String() != "collision" || SlotState(0).String() != "SlotState(0)" {
		t.Error("SlotState.String mismatch")
	}
}

func TestMetricsAddAndDerived(t *testing.T) {
	a := Metrics{Rounds: 2, Messages: 10, SlotsIdle: 1, SlotsSuccess: 2, SlotsCollision: 3}
	b := Metrics{Rounds: 3, Messages: 5, SlotsIdle: 4, SlotsSuccess: 5, SlotsCollision: 6}
	a.Add(&b)
	if a.Rounds != 5 || a.Messages != 15 || a.SlotsIdle != 5 || a.SlotsSuccess != 7 || a.SlotsCollision != 9 {
		t.Errorf("Add result: %+v", a)
	}
	if a.Slots() != 16 {
		t.Errorf("Slots = %d, want 16", a.Slots())
	}
	if a.Communication() != 20 {
		t.Errorf("Communication = %d, want 20", a.Communication())
	}
}
