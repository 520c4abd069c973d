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
	g, err := graph.Path(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, func(ctx *Ctx) error {
		// Path convergecast: node n-1 starts; each node forwards a counter
		// toward node 0.
		sent := false
		var in Input
		in = BarrierStep(ctx, in, func(in Input) bool {
			if ctx.ID() == n-1 && !sent {
				sent = true
				ctx.SendTo(n-2, 1)
				return true
			}
			for _, m := range in.Msgs {
				if ctx.ID() == 0 {
					ctx.SetResult(m.Payload.(int) + 1)
					return false
				}
				ctx.SendTo(ctx.ID()-1, m.Payload.(int)+1)
			}
			return false
		})
		if len(in.Msgs) != 0 {
			return fmt.Errorf("node %d: message in flight across barrier", ctx.ID())
		}
		// All nodes must exit in the same round; encode it in the result.
		if ctx.ID() != 0 {
			ctx.SetResult(in.Round)
		} else {
			ctx.SetResult([2]int{res0(ctx), in.Round})
		}
		return nil
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

// res0 extracts the counter the root recorded mid-barrier.
func res0(ctx *Ctx) int {
	if v, ok := ctx.result.(int); ok {
		return v
	}
	return -1
}

// TestBarrierAllPassive: a step where nobody works ends after one idle slot.
func TestBarrierAllPassive(t *testing.T) {
	g, err := graph.Ring(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, func(ctx *Ctx) error {
		in := BarrierStep(ctx, Input{}, func(Input) bool { return false })
		if in.Round != 1 {
			return fmt.Errorf("pulse at round %d, want 1", in.Round)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Metrics.Rounds)
	}
}

// TestBarrierSequence: three consecutive barrier steps stay aligned across
// all nodes even when different nodes do different amounts of work.
func TestBarrierSequence(t *testing.T) {
	g, err := graph.Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, func(ctx *Ctx) error {
		var rounds []int
		in := Input{}
		for step := 0; step < 3; step++ {
			work := int(ctx.ID()) % 3 // node-dependent busy duration
			in = BarrierStep(ctx, in, func(in Input) bool {
				if work > 0 {
					work--
					return true
				}
				return false
			})
			rounds = append(rounds, in.Round)
		}
		ctx.SetResult(fmt.Sprint(rounds))
		return nil
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
	g, err := graph.Path(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, func(ctx *Ctx) error {
		gotPayload := false
		first := true
		in := BarrierStep(ctx, Input{}, func(in Input) bool {
			for _, m := range in.Msgs {
				_ = m
				gotPayload = true
			}
			if ctx.ID() == 0 && first {
				first = false
				ctx.Send(0, "probe")
				return false // lies about being active; engine must compensate
			}
			return false
		})
		if ctx.ID() == 1 && !gotPayload {
			return fmt.Errorf("pulse fired before delivery: in=%+v", in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
