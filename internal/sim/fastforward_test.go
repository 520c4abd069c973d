package sim

// fastforward_test.go locks down the quiescent-round fast-forward: every
// scenario is run twice, once on the normal per-round path (the
// disableFastForward hook) and once with fast-forward enabled, and the full
// observable outcome — results, metrics, or the error — must be identical,
// and so must the transcript of each side.

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ffOutcome captures everything observable about a native run.
type ffOutcome struct {
	res *Result
	err string
}

// runFFBoth runs the program with and without fast-forward, each side once
// untraced and once with a transcript, and requires bit-identical outcomes
// and byte-identical transcripts, returning the fast-forwarded outcome. The
// two runs of a side take fastForward's two branches.
func runFFBoth(t *testing.T, g graph.Topology, prog StepProgram, opts ...Option) ffOutcome {
	t.Helper()
	capture := func() (ffOutcome, []byte) {
		tr, _, _ := runStepTranscript(t, g, prog, opts...)
		res, err := RunStep(g, prog, opts...)
		if err != nil {
			return ffOutcome{err: err.Error()}, tr
		}
		return ffOutcome{res: res}, tr
	}
	disableFastForward = true
	slow, slowTr := capture()
	disableFastForward = false
	fast, fastTr := capture()
	if !reflect.DeepEqual(slow, fast) {
		t.Fatalf("fast-forward diverges from per-round path:\n slow: %+v %q\n fast: %+v %q",
			slow.res, slow.err, fast.res, fast.err)
	}
	if !bytes.Equal(slowTr, fastTr) {
		t.Fatalf("fast-forward transcript (%d bytes) differs from the per-round path's (%d bytes)", len(fastTr), len(slowTr))
	}
	return fast
}

// sleepForeverProg parks every node forever: the canonical wedge.
func sleepForeverProg(c *StepCtx) Machine {
	return &stepFuncs{step: func(Input) bool {
		c.Sleep()
		return false
	}}
}

// oneShotProg has node 0 send to node 1 in round 0 and halt; node 1 sleeps
// until it has received want messages, then halts with the count.
func oneShotProg(want int) StepProgram {
	return func(c *StepCtx) Machine {
		count := 0
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round == 0 && c.ID() == 0 {
					c.SendTo(1, "wake-up")
					return true
				}
				count += len(in.Msgs)
				if count >= want {
					return true
				}
				c.Sleep()
				return false
			},
			result: func() any { return count },
		}
	}
}

func TestFastForwardDelayedDelivery(t *testing.T) {
	// The only message of the run is delayed 40 rounds into an otherwise
	// fully parked network; the fast-forward must land exactly on the
	// deposit iteration and wake the recipient at the same round.
	g := path(t, 2)
	plan := (&fault.Plan{Seed: 1}).Add(fault.Rule{Kind: fault.Delay, Edge: fault.AllEdges, From: 1, Until: 5, Lag: 40})
	out := runFFBoth(t, g, oneShotProg(1), WithFaults(plan), WithMaxRounds(200))
	if out.err != "" {
		t.Fatalf("run failed: %s", out.err)
	}
	m := out.res.Metrics
	if m.Delayed != 1 || m.Rounds != 42 {
		// Sent in round 0, normally observed at round 1, deferred to 41;
		// the recipient halts in its round-41 step, ending the run at
		// iteration 41 = 42 rounds.
		t.Errorf("metrics = %+v, want Delayed=1 Rounds=42", m)
	}
	if m.SlotsIdle != int64(m.Rounds) {
		t.Errorf("SlotsIdle = %d, want %d (every slot writer-free)", m.SlotsIdle, m.Rounds)
	}
	if out.res.Results[1] != 1 {
		t.Errorf("node 1 result = %v, want 1", out.res.Results[1])
	}
}

func TestFastForwardDuplicateDelivery(t *testing.T) {
	// The original copy arrives at round 1; its duplicate lands 60 rounds
	// later in a network that parked in between, so the skip must stop at
	// the dup's deposit iteration.
	g := path(t, 2)
	plan := (&fault.Plan{Seed: 1}).Add(fault.Rule{Kind: fault.Dup, Edge: fault.AllEdges, From: 1, Until: 1, Lag: 60})
	out := runFFBoth(t, g, oneShotProg(2), WithFaults(plan), WithMaxRounds(300))
	if out.err != "" {
		t.Fatalf("run failed: %s", out.err)
	}
	m := out.res.Metrics
	if m.Duplicated != 1 || m.Rounds != 62 {
		// Original observed at round 1, duplicate at 61; node 1 halts in
		// its round-61 step: 62 rounds.
		t.Errorf("metrics = %+v, want Duplicated=1 Rounds=62", m)
	}
	if out.res.Results[1] != 2 {
		t.Errorf("node 1 result = %v, want 2 (original + dup)", out.res.Results[1])
	}
}

func TestFastForwardCrashMidSkip(t *testing.T) {
	// Crashes scheduled in the middle of a quiescent stretch: the engine
	// must stop each skip at the crash iteration, apply it through the
	// normal path, and end the run when no node remains alive.
	g := path(t, 2)
	plan := (&fault.Plan{Seed: 1}).
		Add(fault.Rule{Kind: fault.Crash, Node: 0, From: 30}).
		Add(fault.Rule{Kind: fault.Crash, Node: 1, From: 70})
	out := runFFBoth(t, g, sleepForeverProg, WithFaults(plan), WithMaxRounds(500))
	if out.err != "" {
		t.Fatalf("run failed: %s", out.err)
	}
	m := out.res.Metrics
	if m.Crashed != 2 || m.Rounds != 70 {
		// Node 1's crash at observation round 70 is applied by iteration
		// 69, the 70th round; alive hits zero and the run ends there.
		t.Errorf("metrics = %+v, want Crashed=2 Rounds=70", m)
	}
	if out.res.Results[0] != nil || out.res.Results[1] != nil {
		t.Errorf("crash-stopped nodes must record nil results, got %v", out.res.Results)
	}
}

func TestFastForwardPulseWakeAfterJamWindow(t *testing.T) {
	// Pulse-parked nodes sleep through a jam window (every slot a forced
	// collision) and wake at the first clear slot. The fast-forward skips
	// the jammed rounds but must accrue SlotsJammed for each of them and
	// wake the sleepers at exactly the same round.
	g := ring(t, 6)
	plan := (&fault.Plan{Seed: 1}).Add(fault.Rule{Kind: fault.Jam, From: 1, Until: 25})
	prog := func(c *StepCtx) Machine {
		return &stepFuncs{
			step: func(in Input) bool {
				if in.Round > 0 && in.IsPulse() {
					return true
				}
				c.SleepUntilPulse()
				return false
			},
			result: func() any { return "pulsed" },
		}
	}
	out := runFFBoth(t, g, prog, WithFaults(plan), WithMaxRounds(400))
	if out.err != "" {
		t.Fatalf("run failed: %s", out.err)
	}
	m := out.res.Metrics
	if m.SlotsJammed != 25 || m.Rounds != 27 {
		// Slots 1–25 jam; slot 26 resolves idle (iteration 25), waking the
		// sleepers, which observe the pulse in round 26 and halt: 27 rounds.
		t.Errorf("metrics = %+v, want SlotsJammed=25 Rounds=27", m)
	}
	for v, r := range out.res.Results {
		if r != "pulsed" {
			t.Fatalf("node %d result = %v", v, r)
		}
	}
}

func TestFastForwardProbabilisticJamAccrual(t *testing.T) {
	// A probabilistic jam over a long skipped stretch: the arithmetic
	// accrual must count exactly the slots the per-round path would have
	// jammed (runFFBoth compares the full Metrics).
	g := path(t, 2)
	plan := (&fault.Plan{Seed: 77}).
		Add(fault.Rule{Kind: fault.Delay, Edge: fault.AllEdges, From: 1, Until: 5, Lag: 60}).
		Add(fault.Rule{Kind: fault.Jam, From: 1, Until: fault.Forever, Prob: 0.3})
	out := runFFBoth(t, g, oneShotProg(1), WithFaults(plan), WithMaxRounds(300))
	if out.err != "" {
		t.Fatalf("run failed: %s", out.err)
	}
	m := out.res.Metrics
	if m.SlotsJammed == 0 || m.SlotsIdle == 0 {
		t.Errorf("metrics = %+v, want a mix of jammed and idle slots", m)
	}
	if m.SlotsJammed+m.SlotsIdle != int64(m.Rounds) {
		t.Errorf("slots %d+%d do not cover %d rounds", m.SlotsJammed, m.SlotsIdle, m.Rounds)
	}
}

func TestFastForwardWedgeHitsBudget(t *testing.T) {
	// A genuine wedge — everyone parked, nothing ever due — must report the
	// exact same ErrMaxRounds as the per-round spin, and must do so
	// instantly even for a budget in the millions.
	g := ring(t, 4)
	disableFastForward = true
	_, slowErr := RunStep(g, sleepForeverProg, WithMaxRounds(3000))
	disableFastForward = false
	_, fastErr := RunStep(g, sleepForeverProg, WithMaxRounds(3000))
	if !errors.Is(fastErr, ErrMaxRounds) || slowErr.Error() != fastErr.Error() {
		t.Fatalf("wedge errors diverge: slow=%v fast=%v", slowErr, fastErr)
	}
	if _, err := RunStep(g, sleepForeverProg, WithMaxRounds(5_000_000)); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("huge-budget wedge: %v", err)
	}
}

func TestFastForwardMatchesSpinningWedge(t *testing.T) {
	// The spinning form of a wedged protocol (stepping every round instead
	// of sleeping) must report the identical error.
	g := ring(t, 4)
	_, gerr := RunStep(g, func(c *StepCtx) Machine {
		return &stepFuncs{step: func(Input) bool { return false }}
	}, WithMaxRounds(120))
	_, serr := RunStep(g, sleepForeverProg, WithMaxRounds(120))
	if gerr == nil || serr == nil || gerr.Error() != serr.Error() {
		t.Fatalf("wedge errors diverge: spinning=%v sleeping=%v", gerr, serr)
	}
	if !strings.Contains(serr.Error(), "maximum round count") {
		t.Fatalf("unexpected wedge error: %v", serr)
	}
}
