package sim

// sleepround_test.go covers StepCtx.SleepUntilRound: a node parked until a
// round steps in it with no input, an early message cancels the wake unless
// the node parks for it again, crashes and restarts leave no live wake
// behind, and a wake that is not in the future fails the run. The
// fast-forward, allocation and checkpoint cases live beside their
// mechanisms' other tests.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// stepLog records, per node, one line for each step its machines took;
// slot v is written only by node v's machine, so shards never share one.
type stepLog [][]string

func (l stepLog) add(c *StepCtx, format string, args ...any) {
	l[c.ID()] = append(l[c.ID()], fmt.Sprintf(format, args...))
}

func TestSleepUntilRoundWakes(t *testing.T) {
	// Node 1 parks until round 5, then until 9, and halts there. Node 0
	// stays awake until round 12, so the wakes come through the delivery
	// phase of a running network; node 2 parks until 20 with everyone else
	// gone, so its wake comes through the fast-forward.
	for _, workers := range []int{1, 3} {
		log := make(stepLog, 3)
		res, err := RunStep(path(t, 3), func(c *StepCtx) Machine {
			return &stepFuncs{step: func(in Input) bool {
				log.add(c, "%d/%d", in.Round, len(in.Msgs))
				switch {
				case c.ID() == 0:
					return in.Round == 12
				case c.ID() == 1 && in.Round == 0:
					c.SleepUntilRound(5)
				case c.ID() == 1 && in.Round == 5:
					c.SleepUntilRound(9)
				case c.ID() == 2 && in.Round == 0:
					c.SleepUntilRound(20)
				default:
					return true
				}
				return false
			}}
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		want := stepLog{
			{"0/0", "1/0", "2/0", "3/0", "4/0", "5/0", "6/0", "7/0", "8/0", "9/0", "10/0", "11/0", "12/0"},
			{"0/0", "5/0", "9/0"},
			{"0/0", "20/0"},
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("w%d: steps (round/messages) = %v, want %v", workers, log, want)
		}
		if res.Metrics.Rounds != 21 {
			t.Errorf("w%d: rounds = %d, want 21", workers, res.Metrics.Rounds)
		}
	}
}

func TestSleepUntilRoundEarlyMessage(t *testing.T) {
	// Node 1 parks until round 10; node 0's message wakes it at round 3.
	// Whether it steps at 10 depends only on how it parks again.
	for _, tc := range []struct {
		name string
		park func(c *StepCtx)
		want []string
	}{
		{"stays awake", nil, []string{"0", "3", "4"}},
		{"sleeps", func(c *StepCtx) { c.Sleep() }, []string{"0", "3", "13"}},
		{"same round", func(c *StepCtx) { c.SleepUntilRound(10) }, []string{"0", "3", "10"}},
		{"later round", func(c *StepCtx) { c.SleepUntilRound(11) }, []string{"0", "3", "11"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := make(stepLog, 2)
			_, err := RunStep(path(t, 2), func(c *StepCtx) Machine {
				return &stepFuncs{step: func(in Input) bool {
					if c.ID() == 0 {
						// Wake node 1 at round 3, and once more at 13 for
						// the variant that parks with plain Sleep.
						if in.Round == 2 || in.Round == 12 {
							c.SendTo(1, in.Round)
						}
						return in.Round == 12
					}
					log.add(c, "%d", in.Round)
					switch {
					case in.Round == 0:
						c.SleepUntilRound(10)
					case in.Round == 3 && tc.park != nil:
						tc.park(c)
					case in.Round > 3:
						return true
					}
					return false
				}}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log[1], tc.want) {
				t.Errorf("node 1 stepped in rounds %v, want %v", log[1], tc.want)
			}
		})
	}
}

func TestSleepUntilRoundCrashAndRestart(t *testing.T) {
	// Node 1 parks at round 0 until 20. Crash-stopped, it never steps
	// again. Revived at round 10, its new incarnation parks until its own
	// local round 15 (global 25): the old incarnation's wake at global 20
	// must not fire.
	prog := func(log stepLog) StepProgram {
		builds := 0
		return func(c *StepCtx) Machine {
			wake := 20
			if c.ID() == 1 {
				if builds++; builds > 1 {
					wake = 15
				}
			}
			return &stepFuncs{step: func(in Input) bool {
				if c.ID() != 1 {
					return c.ID() == 2 || in.Round == 30
				}
				log.add(c, "%d@%d", c.Round(), c.eng.round)
				if c.Round() == 0 {
					c.SleepUntilRound(wake)
					return false
				}
				return true
			}}
		}
	}
	for _, tc := range []struct {
		plan string
		want []string
	}{
		{"crash:1@5", []string{"0@0"}},
		{"crash:1@5;restart:1@10", []string{"0@0", "0@10", "15@25"}},
	} {
		plan, err := fault.Parse(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			log := make(stepLog, 3)
			res, err := RunStep(path(t, 3), prog(log), WithFaults(plan), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log[1], tc.want) {
				t.Errorf("%s w%d: node 1 stepped at (local@global round) %v, want %v", tc.plan, workers, log[1], tc.want)
			}
			if res.Metrics.Crashed != 1 {
				t.Errorf("%s w%d: crashed = %d, want 1", tc.plan, workers, res.Metrics.Crashed)
			}
		}
	}
}

func TestSleepUntilRoundNotInFuture(t *testing.T) {
	// Parking until the current round or an earlier one is a model
	// violation attributed to the node.
	for _, r := range []int{3, 2} {
		_, err := RunStep(ring(t, 4), func(c *StepCtx) Machine {
			return &stepFuncs{step: func(in Input) bool {
				if c.ID() == 2 && in.Round == 3 {
					c.SleepUntilRound(r)
				}
				return in.Round == 5
			}}
		})
		want := fmt.Sprintf("sim: node 2 panicked: sim: node 2 parked until round %d in round 3", r)
		if err == nil || err.Error() != want {
			t.Errorf("SleepUntilRound(%d) in round 3: err = %v, want %q", r, err, want)
		}
	}
}

// timedRelay parks every node until round 10, where all of them wake at
// once; from then on each node that wakes on its timer sends to its
// successor and parks for 2–5 rounds (drawn from its RNG). A node woken
// early by a message adds it up and parks again for the wake it holds.
func timedRelay(c *StepCtx) Machine {
	wake, sum := 10, 0
	return &stepFuncs{
		step: func(in Input) bool {
			for _, m := range in.Msgs {
				sum += m.Payload.(int)
			}
			if in.Round >= 60 {
				return true
			}
			if in.Round == wake {
				c.SendTo(graph.NodeID((int(c.ID())+1)%c.N()), in.Round)
				wake = in.Round + 2 + c.Rand().Intn(4)
			}
			c.SleepUntilRound(wake)
			return false
		},
		result: func() any { return sum },
	}
}

func TestSleepUntilRoundWorkerInvariant(t *testing.T) {
	// On a ring whose full rounds fan out, timed sleepers are parked and
	// woken by the workers' own shards; transcripts must not depend on how
	// many there are.
	g := ring(t, inlineThreshold)
	var want []byte
	for _, workers := range []int{1, 3, 4} {
		var c barrierCounter
		tr, res, err := runStepTranscript(t, g, timedRelay, WithWorkers(workers), WithRecorder(&c))
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Messages == 0 {
			t.Fatal("no messages: the relay never woke")
		}
		if workers == 1 {
			want = tr
			continue
		}
		if !bytes.Equal(tr, want) {
			t.Errorf("w%d transcript (%d bytes) differs from w1's (%d bytes)", workers, len(tr), len(want))
		}
		if c.spans.Load() == 0 {
			t.Errorf("w%d: no phase fanned out", workers)
		}
	}
}
