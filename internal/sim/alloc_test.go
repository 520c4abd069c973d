package sim

// alloc_test.go asserts the allocation diet: a steady-state native round —
// every node stepping, sending, and receiving — must allocate nothing
// beyond what the machines themselves allocate. The assertion is
// differential: total allocations of a long run minus a short run, divided
// by the extra rounds, must be (near-)zero, so engine setup costs cancel
// out.

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// skipUnderRace skips a steady-state gate under the race detector, which
// instruments every memory access and slows the gates' thousands of
// 2,048-node rounds about 18-fold, as the standard library skips its
// AllocsPerRun checks; the gates still run in every build without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("steady-state allocation gate skipped under the race detector")
	}
}

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
// multi-worker runs use the worker pool.
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

// timedDietMachine parks every node in stretches of three rounds: the node
// sends on link 0 when its timer wakes it, and the message wakes the
// recipient early, which parks again for the round it already holds. Wake
// buckets are filled, drained and recycled every three rounds.
type timedDietMachine struct {
	c      *StepCtx
	rounds int
}

func (m timedDietMachine) Step(in Input) bool {
	if in.Round >= m.rounds {
		return true
	}
	if in.Round%3 == 0 {
		m.c.Send(0, struct{}{})
	}
	m.c.SleepUntilRound((in.Round/3 + 1) * 3)
	return false
}

func (m timedDietMachine) Result() any { return nil }

// allocsPerRound is the allocation count of one steady-state round: the
// difference between a long and a short run of the machine mk builds,
// divided by the extra rounds. sends is how many messages one node sends
// in a run of the given length.
func allocsPerRound(t *testing.T, g graph.Topology, workers int, mk func(c *StepCtx, rounds int) Machine, sends func(rounds int) int) float64 {
	t.Helper()
	n := g.N()
	allocsAt := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := RunStep(g, func(c *StepCtx) Machine { return mk(c, rounds) }, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Messages != int64(n*sends(rounds)) {
				t.Fatalf("messages = %d", res.Metrics.Messages)
			}
		})
	}
	const short, long = 50, 1050
	return (allocsAt(long) - allocsAt(short)) / float64(long-short)
}

func stepAllocsPerRound(t *testing.T, g graph.Topology, workers int) float64 {
	t.Helper()
	return allocsPerRound(t, g, workers,
		func(c *StepCtx, rounds int) Machine { return dietMachine{c: c, rounds: rounds} },
		func(rounds int) int { return rounds })
}

func TestStepSteadyStateZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	for _, f := range dietForms(t) {
		if perRound := stepAllocsPerRound(t, f.g, 1); perRound > 0.01 {
			t.Errorf("%s: steady-state native round allocates %.3f objects/round, want 0", f.name, perRound)
		}
	}
}

func TestStepSteadyStateZeroAllocMultiWorker(t *testing.T) {
	skipUnderRace(t)
	// Handing phases to the workers allocates nothing; a small budget
	// absorbs one-time goroutine stack growth.
	for _, f := range dietForms(t) {
		if perRound := stepAllocsPerRound(t, f.g, 4); perRound > 0.05 {
			t.Errorf("%s: steady-state 4-worker round allocates %.3f objects/round, want 0", f.name, perRound)
		}
	}
}

func TestTimedSleepSteadyStateZeroAlloc(t *testing.T) {
	// Parking with SleepUntilRound, and waking on the timer or early by a
	// message, allocates nothing once the shard's wake buckets exist.
	// The budgets are the two gates' above.
	skipUnderRace(t)
	g := ring(t, dietRingN)
	for _, tc := range []struct {
		workers int
		budget  float64
	}{{1, 0.01}, {4, 0.05}} {
		perRound := allocsPerRound(t, g, tc.workers,
			func(c *StepCtx, rounds int) Machine { return timedDietMachine{c: c, rounds: rounds} },
			func(rounds int) int { return (rounds + 2) / 3 })
		if perRound > tc.budget {
			t.Errorf("w%d: steady-state round of timed sleepers allocates %.3f objects/round, want 0", tc.workers, perRound)
		}
	}
}

// TestRelayAllocsPerRun counts the allocations of whole runs: the 20-round
// relay on a stored 10⁵-node ring at 1, 4 and 8 workers. The machines come
// from one Slab, as protocol machines do, so a run allocates per shard and
// per worker, never per node, and one heap object per node anywhere in the
// engine adds 10⁵. A count fails only past both base/0.75 and base+16,
// where base is the count a benchmark recorded for the same relay: 129,
// 396 and 683.
func TestRelayAllocsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node relay runs skipped in -short mode")
	}
	g, err := graph.ParseSpec("mat:ring:100000", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers int
		base    float64
	}{{1, 129}, {4, 396}, {8, 683}} {
		allocs := testing.AllocsPerRun(1, func() {
			var slab Slab[dietMachine]
			res, err := RunStep(g, func(c *StepCtx) Machine {
				m := slab.Alloc(g.N())
				*m = dietMachine{c: c, rounds: 20}
				return m
			}, WithWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Messages != int64(20*g.N()) {
				t.Fatalf("messages = %d", res.Metrics.Messages)
			}
		})
		t.Logf("w%d: %.0f allocs/run", tc.workers, allocs)
		if bound := max(tc.base/0.75, tc.base+16); allocs > bound {
			t.Errorf("w%d: a relay run allocates %.0f objects, want at most %.1f", tc.workers, allocs, bound)
		}
	}
}

// heapGrowth is a Recorder that forces a collection and reads the live heap
// at RunStart and at every 5th RoundEnd, keeping the largest growth over
// the RunStart reading.
type heapGrowth struct {
	rounds      int
	start, peak uint64
}

func (h *heapGrowth) live() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (h *heapGrowth) RunStart(int, Engine, int, int) { h.start = h.live() }
func (*heapGrowth) BeginPhase(Phase, int) int64      { return 0 }
func (*heapGrowth) EndPhase(Phase, int, int, int64)  {}
func (*heapGrowth) FastForward(int, int)             {}
func (*heapGrowth) RunEnd(*Metrics)                  {}
func (h *heapGrowth) RoundEnd(int, int, SlotState, *Metrics) {
	if h.rounds++; h.rounds%5 == 0 {
		if a := h.live(); a > h.start {
			h.peak = max(h.peak, a-h.start)
		}
	}
}

// TestDenseRoundBytesPerNode gates the heap a dense round adds to a run:
// TestRelayAllocsPerRun's 20-round relay, every node sending every round, on
// both forms of a 10⁵-node ring at 1 and 4 workers, with the machines from
// one Slab. The reading is the largest growth of the live heap over its
// RunStart value, per node: the buffers a round's messages pass through on
// their way to the inboxes. Both forms read 80.9 B/node at 1 worker and
// 83.2 at 4 when this was written; a reading fails only past both base/0.75
// and base+16.
func TestDenseRoundBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node heap measurement skipped in -short mode")
	}
	for _, spec := range []string{"ring:100000", "mat:ring:100000"} {
		g, err := graph.ParseSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			workers int
			base    float64
		}{{1, 80.9}, {4, 83.2}} {
			var slab Slab[dietMachine]
			var h heapGrowth
			res, err := RunStep(g, func(c *StepCtx) Machine {
				m := slab.Alloc(g.N())
				*m = dietMachine{c: c, rounds: 20}
				return m
			}, WithWorkers(tc.workers), WithRecorder(&h))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Messages != int64(20*g.N()) {
				t.Fatalf("messages = %d", res.Metrics.Messages)
			}
			perNode := float64(h.peak) / float64(g.N())
			t.Logf("%s w%d: %.1f B/node", spec, tc.workers, perNode)
			if bound := max(tc.base/0.75, tc.base+16); perNode > bound {
				t.Errorf("%s w%d: a dense round adds %.1f B/node, want at most %.1f", spec, tc.workers, perNode, bound)
			}
		}
	}
}
