package sim

// alloc_test.go asserts the allocation diet: a steady-state native round —
// every node stepping, sending, and receiving — must allocate nothing
// beyond what the machines themselves allocate. The assertion is
// differential: total allocations of a long run minus a short run, divided
// by the extra rounds, must be (near-)zero, so engine setup costs cancel
// out.

import (
	"testing"

	"repro/internal/graph"
)

// dietMachine is an allocation-free relay: every node forwards a constant
// payload on link 0 each round until the target round.
type dietMachine struct {
	c      *StepCtx
	rounds int
}

func (m dietMachine) Step(in Input) bool {
	if in.Round == m.rounds {
		return true
	}
	m.c.Send(0, struct{}{})
	return false
}

func (m dietMachine) Result() any { return nil }

// dietRingN is inlineThreshold, the smallest ring whose rounds fan out, so
// multi-worker runs use the gate.
const dietRingN = inlineThreshold

// dietForm is one topology form the gate runs on.
type dietForm struct {
	name string
	g    graph.Topology
}

// dietForms are the stored ring and the implicit ring the 10⁷–10⁸ tiers
// run.
func dietForms(t *testing.T) []dietForm {
	t.Helper()
	imp := ring(t, dietRingN)
	stored, err := graph.Materialize(imp)
	if err != nil {
		t.Fatal(err)
	}
	return []dietForm{{"stored", stored}, {"implicit", imp}}
}

func stepAllocsPerRound(t *testing.T, g graph.Topology, workers int) float64 {
	t.Helper()
	n := g.N()
	allocsAt := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := RunStep(g, func(c *StepCtx) Machine {
				return dietMachine{c: c, rounds: rounds}
			}, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Messages != int64(n*rounds) {
				t.Fatalf("messages = %d", res.Metrics.Messages)
			}
		})
	}
	const short, long = 50, 1050
	return (allocsAt(long) - allocsAt(short)) / float64(long-short)
}

func TestStepSteadyStateZeroAlloc(t *testing.T) {
	for _, f := range dietForms(t) {
		if perRound := stepAllocsPerRound(t, f.g, 1); perRound > 0.01 {
			t.Errorf("%s: steady-state native round allocates %.3f objects/round, want 0", f.name, perRound)
		}
	}
}

func TestStepSteadyStateZeroAllocMultiWorker(t *testing.T) {
	// The gate parks and wakes workers without allocating; a small budget
	// absorbs one-time goroutine stack growth.
	for _, f := range dietForms(t) {
		if perRound := stepAllocsPerRound(t, f.g, 4); perRound > 0.05 {
			t.Errorf("%s: steady-state 4-worker round allocates %.3f objects/round, want 0", f.name, perRound)
		}
	}
}
