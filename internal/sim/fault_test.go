package sim

// fault_test.go verifies the engine's fault-injection semantics: the
// crash-stop boundary, drop/delay/duplicate message fates, channel jamming,
// and the extension of the determinism contract to faulted runs (identical
// outcomes at any worker count, pinned bytes for the stress program).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// faultWorkers runs the program with 1 and 4 workers, asserts the two
// outcomes are identical, and returns the common result.
func faultWorkers(t *testing.T, g graph.Topology, program StepProgram, opts ...Option) *Result {
	t.Helper()
	var ref *Result
	for _, w := range []int{1, 4} {
		res, err := RunStep(g, program, append(append([]Option{}, opts...), WithWorkers(w))...)
		if err != nil {
			t.Fatalf("step-w%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Results, res.Results) {
			t.Fatalf("step-w%d results diverge:\n ref: %#v\n got: %#v", w, ref.Results, res.Results)
		}
		if ref.Metrics != res.Metrics {
			t.Fatalf("step-w%d metrics diverge:\n ref: %+v\n got: %+v", w, ref.Metrics, res.Metrics)
		}
	}
	return ref
}

// resultAt returns v on node id and nil elsewhere: the result vector of a
// program whose only recording node is id.
func resultAt(c *StepCtx, id graph.NodeID, v any) any {
	if c.ID() == id {
		return v
	}
	return nil
}

// countTo1 has node 0 send its round number to node 1 in each of rounds
// 0..rounds-1; node 1 records the payloads it receives.
func countTo1(rounds int) StepProgram {
	return func(c *StepCtx) Machine {
		var got []int
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					got = append(got, m.Payload.(int))
				}
				if in.Round == rounds {
					return true
				}
				if c.ID() == 0 {
					c.SendTo(1, in.Round)
				}
				return false
			},
			result: func() any { return resultAt(c, 1, got) },
		}
	}
}

// arrivalsAt1 has node 0 send "m<r>" to node 1 in the rounds r < rounds
// that sendAt selects; node 1 records each arrival as "m<r>@<round>".
func arrivalsAt1(rounds int, sendAt func(r int) bool) StepProgram {
	return func(c *StepCtx) Machine {
		var got []string
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					got = append(got, fmt.Sprintf("%s@%d", m.Payload, in.Round))
				}
				if in.Round == rounds {
					return true
				}
				if c.ID() == 0 && sendAt(in.Round) {
					c.SendTo(1, fmt.Sprintf("m%d", in.Round))
				}
				return false
			},
			result: func() any { return resultAt(c, 1, got) },
		}
	}
}

// TestFaultCrashStop checks the crash boundary: the victim's sends from its
// last completed round are delivered, nothing later; messages addressed to
// it after the crash are dropped as to a halted node.
func TestFaultCrashStop(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:2@5")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *StepCtx) Machine {
		var got []int
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					if m.From == 2 {
						got = append(got, m.Payload.(int))
					}
				}
				if in.Round == 8 {
					return true
				}
				switch c.ID() {
				case 2:
					c.SendTo(1, in.Round)
				case 1:
					c.SendTo(2, in.Round)
				}
				return false
			},
			result: func() any { return resultAt(c, 1, got) },
		}
	}
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// Node 2's last compute round is 4: values 0..4 arrive at node 1.
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Crashed != 1 {
		t.Errorf("Crashed = %d, want 1", res.Metrics.Crashed)
	}
	// Node 1's sends of rounds 4..7 arrive at rounds 5..8, after the crash.
	if res.Metrics.DroppedHalted != 4 {
		t.Errorf("DroppedHalted = %d, want 4", res.Metrics.DroppedHalted)
	}
}

// TestFaultLinkDrop checks a finite drop window on one edge.
func TestFaultLinkDrop(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@3-5")
	if err != nil {
		t.Fatal(err)
	}
	prog := countTo1(8)
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// Values 2, 3, 4 would arrive at rounds 3, 4, 5 — the drop window.
	if want := []int{0, 1, 5, 6, 7}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.DroppedFault != 3 {
		t.Errorf("DroppedFault = %d, want 3", res.Metrics.DroppedFault)
	}
	if res.Metrics.Messages != 8 {
		t.Errorf("Messages = %d, want 8 (drops still count as sent)", res.Metrics.Messages)
	}
}

// TestFaultDelayAndDup checks delayed and duplicated deliveries.
func TestFaultDelayAndDup(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("delay:0@1/d3;dup:0@2")
	if err != nil {
		t.Fatal(err)
	}
	prog := arrivalsAt1(8, func(r int) bool { return r < 2 })
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// m0 (normal arrival 1) is delayed 3 rounds to 4; m1 (arrival 2) is
	// duplicated: delivered at 2 and again at 3.
	if want := []string{"m1@2", "m1@3", "m0@4"}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Delayed != 1 || res.Metrics.Duplicated != 1 {
		t.Errorf("Delayed, Duplicated = %d, %d, want 1, 1",
			res.Metrics.Delayed, res.Metrics.Duplicated)
	}
}

// TestFaultJam checks that a jammed slot presents as a collision to every
// node, hiding a lone writer.
func TestFaultJam(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("jam:3")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *StepCtx) Machine {
		var states []SlotState
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round > 0 {
					states = append(states, in.Slot.State)
				}
				if in.Round == 5 {
					return true
				}
				if c.ID() == 0 {
					c.Broadcast("x")
				}
				return false
			},
			result: func() any { return states },
		}
	}
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	want := []SlotState{SlotSuccess, SlotSuccess, SlotCollision, SlotSuccess, SlotSuccess}
	for v, r := range res.Results {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("node %d observed %v, want %v", v, r, want)
		}
	}
	if res.Metrics.SlotsJammed != 1 || res.Metrics.SlotsSuccess != 4 {
		t.Errorf("SlotsJammed, SlotsSuccess = %d, %d, want 1, 4",
			res.Metrics.SlotsJammed, res.Metrics.SlotsSuccess)
	}
}

// TestFaultDefaultFaults checks that the process-wide default plan applies
// when no WithFaults option is given and that WithFaults(nil) overrides it.
func TestFaultDefaultFaults(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@1-")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *StepCtx) Machine {
		got := 0
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 {
					c.SendTo(1-c.ID(), "hi")
					return false
				}
				got = len(in.Msgs)
				return true
			},
			result: func() any { return got },
		}
	}
	old := DefaultFaults
	DefaultFaults = plan
	defer func() { DefaultFaults = old }()

	res, err := RunStep(g, prog, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0] != 0 || res.Results[1] != 0 || res.Metrics.DroppedFault != 2 {
		t.Errorf("default plan not applied: %v, %+v", res.Results, res.Metrics)
	}
	res, err = RunStep(g, prog, WithSeed(1), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0] != 1 || res.Results[1] != 1 || res.Metrics.DroppedFault != 0 {
		t.Errorf("WithFaults(nil) did not override the default: %v, %+v", res.Results, res.Metrics)
	}
}

// TestFaultNativeSleepDelay checks the step engine's pending-message path
// against sleeping machines: with every live node asleep and a delayed
// message in flight, the engine must keep ticking (not declare quiescence)
// and wake the recipient at the fault-assigned round.
func TestFaultNativeSleepDelay(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("delay:0@1/d2")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		prog := func(c *StepCtx) Machine {
			return &sleepDelayMachine{c: c}
		}
		res, err := RunStep(g, prog, WithSeed(1), WithWorkers(workers), WithFaults(plan))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Normal arrival round 1, delayed 2 rounds to 3.
		if res.Results[1] != 3 {
			t.Errorf("workers=%d: woke at round %v, want 3", workers, res.Results[1])
		}
		if res.Metrics.Delayed != 1 {
			t.Errorf("workers=%d: Delayed = %d, want 1", workers, res.Metrics.Delayed)
		}
	}
}

type sleepDelayMachine struct {
	c    *StepCtx
	woke int
}

func (m *sleepDelayMachine) Step(in Input) bool {
	if in.Round == 0 {
		if m.c.ID() == 0 {
			m.c.SendTo(1, "ping")
			return true
		}
		m.c.Sleep()
		return false
	}
	if len(in.Msgs) > 0 {
		m.woke = in.Round
		return true
	}
	m.c.Sleep()
	return false
}

func (m *sleepDelayMachine) Result() any { return m.woke }

// stressMachine is a randomized machine drawing every fault kind's
// attention: random sends on every link, random channel writes, and a
// running digest of everything it observes over 12 rounds.
func stressMachine(c *StepCtx) Machine {
	sum := uint64(0)
	mix := func(vals ...uint64) {
		for _, v := range vals {
			sum = sum*0x100000001b3 + v
		}
	}
	return &stepFuncs{
		step: func(in Input) bool {
			if in.Round > 0 {
				mix(uint64(in.Round), uint64(in.Slot.State), uint64(in.Slot.From))
				if p, ok := in.Slot.Payload.(int); ok {
					mix(uint64(p))
				}
				for _, m := range in.Msgs {
					mix(uint64(m.From), uint64(m.EdgeID), uint64(m.Payload.(int)))
				}
			}
			if in.Round == 12 {
				return true
			}
			for l := 0; l < c.Degree(); l++ {
				if c.Rand().Intn(3) == 0 {
					c.Send(l, int(c.Rand().Intn(1000)))
				}
			}
			if c.Rand().Intn(5) == 0 {
				c.Broadcast(int(c.ID())*100 + c.Round())
			}
			return false
		},
		result: func() any { return sum },
	}
}

// TestFaultStressPinned is the fault determinism gate at the sim level: a
// randomized machine under a plan combining every fault kind must
// reproduce its committed fixture at 1 and 4 workers.
func TestFaultStressPinned(t *testing.T) {
	g, err := graph.RandomConnected(20, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(
		"seed:11;crash:3@4;crash:7@6;drop:2@2-6;delay:*@1-/d2/p0.15;dup:1@3-9/p0.5;jam:2-4/p0.6")
	if err != nil {
		t.Fatal(err)
	}
	run := func(o ...Option) (*Result, error) { return RunStep(g, stressMachine, o...) }
	for _, w := range []int{1, 4} {
		checkPin(t, "fault-stress", fmt.Sprintf("step-w%d", w),
			pinCell(t, run, WithSeed(9), WithFaults(plan), WithWorkers(w)))
	}
	res, err := run(WithSeed(9), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Crashed != 2 {
		t.Errorf("Crashed = %d, want 2", res.Metrics.Crashed)
	}
	if res.Metrics.SlotsJammed == 0 || res.Metrics.Delayed == 0 ||
		res.Metrics.Duplicated == 0 || res.Metrics.DroppedFault == 0 {
		t.Errorf("plan did not exercise every fault kind: %+v", res.Metrics)
	}
}

// TestFaultPartitionWindowHeal checks the chaos-v2 partition rule: with
// seed 1 the 2-group split of Path(3) isolates node 1 from both neighbors
// (verified by the group-stability test in internal/fault), so every
// point-to-point message crossing the cut during rounds 3-5 is dropped and
// delivery resumes the round the window heals. The multiaccess channel is
// deliberately unaffected: a broadcast from inside the minority component
// still reaches the whole network mid-partition.
func TestFaultPartitionWindowHeal(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("seed:1;partition:2@3-5")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *StepCtx) Machine {
		var from0, from2 []int
		var heard []string
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					if m.From == 0 {
						from0 = append(from0, m.Payload.(int))
					} else {
						from2 = append(from2, m.Payload.(int))
					}
				}
				if s, ok := in.Slot.Payload.(string); ok && in.Slot.State == SlotSuccess {
					heard = append(heard, fmt.Sprintf("%s@%d", s, in.Round))
				}
				if in.Round == 8 {
					return true
				}
				switch c.ID() {
				case 0, 2:
					c.SendTo(1, in.Round)
				case 1:
					c.SendTo(0, in.Round)
					if in.Round == 3 { // mid-partition broadcast
						c.Broadcast("cut?")
					}
				}
				return false
			},
			result: func() any {
				if c.ID() == 1 {
					return fmt.Sprintf("%v %v", from0, from2)
				}
				return fmt.Sprintf("%v", heard)
			},
		}
	}
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// Sends of compute rounds 2..4 would arrive at 3..5 — the window.
	if want := "[0 1 5 6 7] [0 1 5 6 7]"; res.Results[1] != want {
		t.Errorf("node 1 received %q, want %q", res.Results[1], want)
	}
	// The channel ignores the partition: the broadcast lands everywhere.
	for _, v := range []graph.NodeID{0, 2} {
		if want := "[cut?@4]"; res.Results[v] != want {
			t.Errorf("node %d heard %q, want %q", v, res.Results[v], want)
		}
	}
	// Six cut crossings into node 1 plus three from it (rounds 3..5, both
	// directions on edge 0, one direction on edge 1).
	if res.Metrics.PartitionedDrop != 9 {
		t.Errorf("PartitionedDrop = %d, want 9", res.Metrics.PartitionedDrop)
	}
	if res.Metrics.DroppedFault != 0 {
		t.Errorf("DroppedFault = %d, want 0 (partition drops count separately)", res.Metrics.DroppedFault)
	}
}

// TestFaultRestart checks crash-restart revival: the victim's replacement
// incarnation re-runs the program from local round 0 with reset protocol
// state and a fresh RNG stream (nodeSeedAt incarnation 1), and its result
// replaces the dead incarnation's.
func TestFaultRestart(t *testing.T) {
	g, err := graph.ImplicitPath(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:2@3;restart:2@6")
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *StepCtx) Machine {
		if c.ID() == 2 {
			return &stepFuncs{
				step: func(in Input) bool {
					switch {
					case in.Round == 4:
						return true
					case in.Round == 0:
						c.SendTo(1, c.Rand().Int63()) // one stream probe per incarnation
					default:
						c.SendTo(1, in.Round)
					}
					return false
				},
				result: func() any { return "done" },
			}
		}
		var vals []string
		var rngs []int64
		return &stepFuncs{
			step: func(in Input) bool {
				for _, m := range in.Msgs {
					switch p := m.Payload.(type) {
					case int64:
						rngs = append(rngs, p)
					case int:
						vals = append(vals, fmt.Sprintf("%d@%d", p, in.Round))
					}
				}
				return in.Round == 12
			},
			result: func() any { return resultAt(c, 1, fmt.Sprintf("%v %v", vals, rngs)) },
		}
	}
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// Incarnation 0 completes local rounds 0..2 (sends arrive at global
	// rounds 1..3), then crashes. The restart at round 6 re-runs the
	// program: local rounds 0..3 land at global 7..10. Each incarnation's
	// round-0 probe draws the first value of its own derived stream.
	rand0, _ := nodeRand(nodeSeedAt(1, 2, 0), 0)
	rand1, _ := nodeRand(nodeSeedAt(1, 2, 1), 0)
	probe0 := rand0.Int63()
	probe1 := rand1.Int63()
	if probe0 == probe1 {
		t.Fatalf("incarnation streams collide: %d", probe0)
	}
	want := fmt.Sprintf("[1@2 2@3 1@8 2@9 3@10] [%d %d]", probe0, probe1)
	if res.Results[1] != want {
		t.Errorf("node 1 received %q, want %q", res.Results[1], want)
	}
	// The second incarnation ran to completion and owns the result slot.
	if res.Results[2] != "done" {
		t.Errorf("node 2 result = %v, want %q (replacement incarnation's)", res.Results[2], "done")
	}
	if res.Metrics.Crashed != 1 || res.Metrics.Restarted != 1 {
		t.Errorf("Crashed, Restarted = %d, %d, want 1, 1",
			res.Metrics.Crashed, res.Metrics.Restarted)
	}
}

// TestFaultRestartInitRule checks that a revived node's init hook is held to
// the rule of the first build: node 2's hook sends on one of its builds, and
// the run fails naming node 2 with identical transcripts at every worker
// count. The send must not ride out under another node's id either.
func TestFaultRestartInitRule(t *testing.T) {
	g := path(t, 3)
	for _, tc := range []struct {
		name   string
		plan   string
		sendAt int // which of node 2's builds sends
	}{
		{"first", "", 1},
		{"restart", "crash:2@3;restart:2@6", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			var ref []byte
			for _, w := range []int{1, 3, 4} {
				builds := 0
				prog := func(c *StepCtx) Machine {
					if c.ID() == 2 {
						if builds++; builds == tc.sendAt {
							c.SendTo(1, "early")
						}
					}
					return &stepFuncs{step: func(in Input) bool { return in.Round == 12 }}
				}
				tr, _, err := runStepTranscript(t, g, prog, WithFaults(plan), WithWorkers(w))
				const want = "sim: step program for node 2 sent or wrote the channel during init"
				if err == nil || err.Error() != want {
					t.Fatalf("w%d: err = %v, want %q", w, err, want)
				}
				if ref == nil {
					ref = tr
				} else if !bytes.Equal(tr, ref) {
					t.Fatalf("w%d transcript differs from w1's", w)
				}
			}
		})
	}
}

// TestFaultRecurringWindow checks the /eN modifier: a 2-round drop window
// recurring every 4 rounds fires at deliver rounds 2-3, 6-7, 10-11.
func TestFaultRecurringWindow(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("drop:0@2-3/e4")
	if err != nil {
		t.Fatal(err)
	}
	prog := countTo1(12)
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan))
	// Arrival rounds 2,3 then every 4: 2,3,6,7,10,11 dropped — the sends
	// of compute rounds 1,2,5,6,9,10.
	if want := []int{0, 3, 4, 7, 8, 11}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.DroppedFault != 6 {
		t.Errorf("DroppedFault = %d, want 6", res.Metrics.DroppedFault)
	}
}

// TestFaultSkewRequiresSynchronizer checks the capability gate: skew rules
// only mean something where a synchronizer simulates per-node clocks, so a
// plain round-synchronous run must refuse the plan.
func TestFaultSkewRequiresSynchronizer(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("skew:0@1-4/d2")
	if err != nil {
		t.Fatal(err)
	}
	noop := func(c *StepCtx) Machine { return &stepFuncs{step: func(in Input) bool { return in.Round == 1 }} }
	_, err = RunStep(g, noop, WithSeed(1), WithFaults(plan))
	if err == nil {
		t.Fatal("skew plan accepted without a synchronizer")
	}
	want := "fault: rule 0 (skew:0@1-4/d2): skew applies only to synchronizer runs (the §7.1 async layer)"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestFaultSkew checks per-sender clock skew under WithSynchronizer: a
// message leaving the skewed node during the window arrives /dN rounds
// late, like a delay but keyed on the sender, and counts as Skewed.
func TestFaultSkew(t *testing.T) {
	g, err := graph.ImplicitPath(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("skew:0@1-3/d3")
	if err != nil {
		t.Fatal(err)
	}
	prog := arrivalsAt1(10, func(r int) bool { return r == 0 || r == 4 })
	res := faultWorkers(t, g, prog, WithSeed(1), WithFaults(plan), WithSynchronizer())
	// m0 (normal arrival 1, inside the window) slips 3 rounds to 4; m4
	// (arrival 5, after the window) is on time.
	if want := []string{"m0@4", "m4@5"}; !reflect.DeepEqual(res.Results[1], want) {
		t.Errorf("node 1 received %v, want %v", res.Results[1], want)
	}
	if res.Metrics.Skewed != 1 || res.Metrics.Delayed != 0 {
		t.Errorf("Skewed, Delayed = %d, %d, want 1, 0",
			res.Metrics.Skewed, res.Metrics.Delayed)
	}
}
