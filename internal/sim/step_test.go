package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// stepFuncs adapts plain closures to a Machine for tests.
type stepFuncs struct {
	step   func(in Input) bool
	result func() any
}

func (m *stepFuncs) Step(in Input) bool { return m.step(in) }
func (m *stepFuncs) Result() any {
	if m.result == nil {
		return nil
	}
	return m.result()
}

func TestStepImmediateHalt(t *testing.T) {
	res, err := RunStep(ring(t, 5), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool { return true }}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 1 || res.Metrics.Messages != 0 || res.Metrics.SlotsIdle != 1 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
}

// TestStepCtxHandle: the handle every machine captures stays 16 bytes, and
// the shard index it carries names the shard that id / shardSize does, at
// worker counts that leave a short last shard on 10 nodes.
func TestStepCtxHandle(t *testing.T) {
	if size := unsafe.Sizeof(StepCtx{}); size != 16 {
		t.Errorf("StepCtx is %d bytes, want 16", size)
	}
	for _, w := range []int{1, 3, 4} {
		var bad []string
		_, err := RunStep(ring(t, 10), func(c *StepCtx) Machine {
			return &stepFuncs{step: func(Input) bool {
				v := int(c.ID())
				if want := v / c.eng.shardSize; int(c.shardIdx) != want {
					bad = append(bad, fmt.Sprintf("node %d: shard %d, want %d", v, c.shardIdx, want))
				}
				if sd := c.shard(); v < sd.lo || v >= sd.hi {
					bad = append(bad, fmt.Sprintf("node %d: shard spans [%d,%d)", v, sd.lo, sd.hi))
				}
				return true
			}}
		}, WithWorkers(w))
		if err != nil {
			t.Fatalf("w%d: %v", w, err)
		}
		if len(bad) > 0 {
			t.Errorf("w%d: %s", w, strings.Join(bad, "; "))
		}
	}
}

func TestStepMessageDeliveryAndSorting(t *testing.T) {
	// All ring neighbors of node 0 send to it in round 0; its round-1 inbox
	// must hold both messages sorted by sender.
	g := ring(t, 6)
	res, err := RunStep(g, func(c *StepCtx) Machine {
		return &stepFuncs{step: func(in Input) bool {
			switch in.Round {
			case 0:
				if c.ID() != 0 {
					if l, ok := c.Link(0); ok {
						c.Send(l, int(c.ID()))
					}
					return true
				}
				return false
			default:
				if c.ID() == 0 {
					if len(in.Msgs) != 2 || in.Msgs[0].From >= in.Msgs[1].From {
						c.Failf("inbox %v", in.Msgs)
					}
				}
				return true
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Metrics.Messages)
	}
}

func TestStepChannelResolution(t *testing.T) {
	for _, tt := range []struct {
		name    string
		writers []graph.NodeID
		want    SlotState
	}{
		{"idle", nil, SlotIdle},
		{"success", []graph.NodeID{2}, SlotSuccess},
		{"collision", []graph.NodeID{1, 3}, SlotCollision},
		{"collision all", []graph.NodeID{0, 1, 2, 3, 4}, SlotCollision},
	} {
		t.Run(tt.name, func(t *testing.T) {
			writerSet := make(map[graph.NodeID]bool)
			for _, w := range tt.writers {
				writerSet[w] = true
			}
			res, err := RunStep(ring(t, 5), func(c *StepCtx) Machine {
				return &stepFuncs{step: func(in Input) bool {
					if in.Round == 0 {
						if writerSet[c.ID()] {
							c.Broadcast(int(c.ID()) * 10)
						}
						return false
					}
					if in.Slot.State != tt.want {
						c.Failf("slot %v, want %v", in.Slot.State, tt.want)
					}
					if tt.want == SlotSuccess &&
						(in.Slot.From != tt.writers[0] || in.Slot.Payload.(int) != int(tt.writers[0])*10) {
						c.Failf("slot %+v", in.Slot)
					}
					return true
				}}
			}, WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			switch tt.want {
			case SlotIdle:
				if m.SlotsIdle < 1 {
					t.Error("no idle slot counted")
				}
			case SlotSuccess:
				if m.SlotsSuccess != 1 {
					t.Errorf("SlotsSuccess = %d", m.SlotsSuccess)
				}
			case SlotCollision:
				if m.SlotsCollision != 1 {
					t.Errorf("SlotsCollision = %d", m.SlotsCollision)
				}
			}
		})
	}
}

func TestStepResultHook(t *testing.T) {
	res, err := RunStep(ring(t, 4), func(c *StepCtx) Machine {
		id := c.ID()
		return &stepFuncs{
			step:   func(Input) bool { return true },
			result: func() any { return int(id) * 11 },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Results {
		if r != v*11 {
			t.Errorf("result[%d] = %v", v, r)
		}
	}
}

func TestStepRoundNumbering(t *testing.T) {
	_, err := RunStep(ring(t, 3), func(c *StepCtx) Machine {
		want := 0
		return &stepFuncs{step: func(in Input) bool {
			if in.Round != want || c.Round() != want {
				c.Failf("round = %d/%d, want %d", in.Round, c.Round(), want)
			}
			want++
			return in.Round == 3
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepSleepWave(t *testing.T) {
	// A token travels around the ring; every node sleeps until it arrives.
	const n = 64
	res, err := RunStep(ring(t, n), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(in Input) bool {
			relay := func() {
				// Forward to the neighbor with the next id (mod n).
				next := graph.NodeID((int(c.ID()) + 1) % n)
				if next != 0 {
					c.SendTo(next, "token")
				}
			}
			if in.Round == 0 {
				if c.ID() == 0 {
					relay()
					return true
				}
				c.Sleep()
				return false
			}
			if len(in.Msgs) == 0 {
				c.Failf("woken with no mail in round %d", in.Round)
			}
			relay()
			return true
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != n || res.Metrics.Messages != n-1 {
		t.Errorf("rounds=%d msgs=%d, want %d and %d", res.Metrics.Rounds, res.Metrics.Messages, n, n-1)
	}
}

func TestStepQuiescenceHitsBudget(t *testing.T) {
	// Everyone sleeps forever with no message ever due: the wedge spins
	// cheap empty rounds to ErrMaxRounds.
	_, err := RunStep(ring(t, 4), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Sleep()
			return false
		}}
	}, WithMaxRounds(50))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestStepMaxRounds(t *testing.T) {
	_, err := RunStep(ring(t, 3), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool { return false }}
	}, WithMaxRounds(10))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestStepPanicReported(t *testing.T) {
	_, err := RunStep(ring(t, 3), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool {
			if c.ID() == 1 {
				panic("kaboom")
			}
			return false
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "node 1 panicked") {
		t.Fatalf("err = %v, want node 1 panic", err)
	}
}

func TestStepDoubleSendPanics(t *testing.T) {
	_, err := RunStep(path(t, 2), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool {
			c.Send(0, 1)
			c.Send(0, 2)
			return true
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "sent twice") {
		t.Fatalf("err = %v, want double-send error", err)
	}
}

func TestStepDroppedToHalted(t *testing.T) {
	res, err := RunStep(path(t, 2), func(c *StepCtx) Machine {
		return &stepFuncs{step: func(in Input) bool {
			if c.ID() == 0 {
				return true
			}
			if in.Round == 1 {
				c.Send(0, "late")
			}
			return in.Round == 2
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedHalted != 1 {
		t.Errorf("DroppedHalted = %d, want 1", res.Metrics.DroppedHalted)
	}
}

// chatterMachine is a randomized machine exercising RNG draws, channel
// success and collision slots, and point-to-point sends for the given
// number of rounds; its result counts what it heard.
func chatterMachine(rounds int) StepProgram {
	return func(c *StepCtx) Machine {
		var heard int64
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round > 0 {
					heard += int64(len(in.Msgs))
					if in.Slot.State == SlotSuccess {
						heard += 1000
					}
				}
				if in.Round == rounds {
					return true
				}
				if c.Rand().Intn(3) == 0 {
					c.Broadcast(int(c.ID()))
				}
				if c.Rand().Intn(2) == 0 && c.Degree() > 0 {
					c.Send(c.Rand().Intn(c.Degree()), in.Round)
				}
				return false
			},
			result: func() any { return heard },
		}
	}
}

// TestChatterPinned holds the randomized chatter machine to its committed
// fixture at several worker counts.
func TestChatterPinned(t *testing.T) {
	g, err := graph.RandomConnected(40, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o ...Option) (*Result, error) { return RunStep(g, chatterMachine(12), o...) }
	for _, workers := range []int{1, 3, 8} {
		checkPin(t, "chatter", fmt.Sprintf("step-w%d", workers), pinCell(t, run, WithSeed(99), WithWorkers(workers)))
	}
}

// floodMachine is one barrier-synchronized flood from node 0 over
// StepBarrier; every node's result reports whether the wave reached it.
func floodMachine(c *StepCtx) Machine {
	b := NewStepBarrier(c)
	seen := c.ID() == 0
	return &stepFuncs{
		step: func(in Input) bool {
			return b.Step(in, func(in Input) bool {
				if !seen && len(in.Msgs) > 0 {
					seen = true
					for l := 0; l < c.Degree(); l++ {
						c.Send(l, "wave")
					}
				}
				if seen && in.Round == 0 && c.ID() == 0 {
					for l := 0; l < c.Degree(); l++ {
						c.Send(l, "wave")
					}
				}
				return false
			})
		},
		result: func() any { return seen },
	}
}

// TestStepBarrierFloodPinned holds the barrier flood to its committed
// fixture at 1 and 4 workers.
func TestStepBarrierFloodPinned(t *testing.T) {
	g, err := graph.RandomConnected(30, 45, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o ...Option) (*Result, error) { return RunStep(g, floodMachine, o...) }
	for _, w := range []int{1, 4} {
		checkPin(t, "barrier-flood", fmt.Sprintf("step-w%d", w), pinCell(t, run, WithWorkers(w)))
	}
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r != true {
			t.Fatalf("flood did not reach every node: %v", res.Results)
		}
	}
}

func TestStepInboxAppendSafe(t *testing.T) {
	// The engine delivers each round's messages in one arena per shard; a
	// machine appending to its Input.Msgs must reallocate instead of
	// overwriting the next recipient's window. Every node messages its
	// successor, so all the round's inbox windows sit side by side in one
	// arena.
	const n = 8
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStep(g, func(c *StepCtx) Machine {
		sum := 0
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					c.SendTo(graph.NodeID((int(c.ID())+1)%n), int(c.ID())*100)
					return false
				}
				// Abuse the API: grow the inbox slice.
				grown := append(in.Msgs, Message{From: 99, EdgeID: 99, Payload: "junk"})
				_ = grown
				for _, m := range in.Msgs {
					sum += m.Payload.(int)
				}
				return true
			},
			result: func() any { return sum },
		}
	}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, got := range res.Results {
		if want := (v + n - 1) % n * 100; got != want {
			t.Errorf("node %d sum = %v, want %d (its predecessor's message)", v, got, want)
		}
	}
}
