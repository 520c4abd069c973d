package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestBarrierConvergecast runs a convergecast on a path rooted at node 0
// under the busy-tone barrier: every node learns the step ended in the same
// round, and no message is in flight when the pulse fires.
func TestBarrierConvergecast(t *testing.T) {
	const n = 9
	g, err := graph.ImplicitPath(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStep(g, func(c *StepCtx) Machine {
		// Path convergecast: node n-1 starts; each node forwards a counter
		// toward node 0.
		b := NewStepBarrier(c)
		sent := false
		counter, exit := -1, 0
		return &stepFuncs{
			step: func(in Input) bool {
				if !b.Step(in, func(in Input) bool {
					if c.ID() == n-1 && !sent {
						sent = true
						c.SendTo(n-2, 1)
						return true
					}
					for _, m := range in.Msgs {
						if c.ID() == 0 {
							counter = m.Payload.(int) + 1
							return false
						}
						c.SendTo(c.ID()-1, m.Payload.(int)+1)
					}
					return false
				}) {
					return false
				}
				if len(in.Msgs) != 0 {
					c.Failf("node %d: message in flight across barrier", c.ID())
				}
				exit = in.Round
				return true
			},
			// All nodes must exit in the same round; encode it in the result.
			result: func() any {
				if c.ID() == 0 {
					return [2]int{counter, exit}
				}
				return exit
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Results[0].([2]int)
	if root[0] != n {
		t.Errorf("counter at root = %d, want %d", root[0], n)
	}
	for v := 1; v < n; v++ {
		if res.Results[v].(int) != root[1] {
			t.Errorf("node %d exited at round %v, root at %d", v, res.Results[v], root[1])
		}
	}
}

// TestBarrierAllPassive: a step where nobody works ends after one idle slot.
func TestBarrierAllPassive(t *testing.T) {
	g, err := graph.ImplicitRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStep(g, func(c *StepCtx) Machine {
		b := NewStepBarrier(c)
		return &stepFuncs{step: func(in Input) bool {
			if !b.Step(in, func(Input) bool { return false }) {
				return false
			}
			if in.Round != 1 {
				c.Failf("pulse at round %d, want 1", in.Round)
			}
			return true
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Metrics.Rounds)
	}
}

// TestBarrierSequence: three consecutive barrier steps stay aligned across
// all nodes even when different nodes do different amounts of work. Each
// pulse round's input starts the next step.
func TestBarrierSequence(t *testing.T) {
	g, err := graph.ImplicitRing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStep(g, func(c *StepCtx) Machine {
		b := NewStepBarrier(c)
		var rounds []int
		work := int(c.ID()) % 3 // node-dependent busy duration
		handle := func(Input) bool {
			if work > 0 {
				work--
				return true
			}
			return false
		}
		return &stepFuncs{
			step: func(in Input) bool {
				for b.Step(in, handle) {
					rounds = append(rounds, in.Round)
					if len(rounds) == 3 {
						return true
					}
					work = int(c.ID()) % 3
				}
				return false
			},
			result: func() any { return fmt.Sprint(rounds) },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 6; v++ {
		if res.Results[v] != res.Results[0] {
			t.Errorf("node %d barrier schedule %v != node 0's %v", v, res.Results[v], res.Results[0])
		}
	}
}

// TestBarrierForcesBusyOnSend: a handler that sends but reports inactive
// must still hold the barrier (no premature pulse).
func TestBarrierForcesBusyOnSend(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunStep(g, func(c *StepCtx) Machine {
		b := NewStepBarrier(c)
		gotPayload := false
		first := true
		return &stepFuncs{step: func(in Input) bool {
			if !b.Step(in, func(in Input) bool {
				if len(in.Msgs) > 0 {
					gotPayload = true
				}
				if c.ID() == 0 && first {
					first = false
					c.Send(0, "probe")
					return false // lies about being active; the barrier must compensate
				}
				return false
			}) {
				return false
			}
			if c.ID() == 1 && !gotPayload {
				c.Failf("pulse fired before delivery: in=%+v", in)
			}
			return true
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
}
