package sim

// pool_test.go checks the worker pool that runs a round's phases when
// enough nodes are awake: the fan-out rule, that every shard runs each phase
// once per round whatever the worker count, and that no worker outlives its
// run, however the run ends.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// barrierCounter is a Recorder that counts the coordinator's barrier spans:
// one per phase fanned out to the worker pool, none for a phase run inline.
type barrierCounter struct{ spans atomic.Int64 }

func (*barrierCounter) RunStart(int, Engine, int, int) {}
func (*barrierCounter) BeginPhase(Phase, int) int64    { return 0 }
func (c *barrierCounter) EndPhase(p Phase, shard, _ int, _ int64) {
	if p == PhaseBarrier && shard == 0 {
		c.spans.Add(1)
	}
}
func (*barrierCounter) FastForward(int, int)                   {}
func (*barrierCounter) RoundEnd(int, int, SlotState, *Metrics) {}
func (*barrierCounter) RunEnd(*Metrics)                        {}

// TestFanOutThreshold pins the fan-out rule: a round's two phases run on the
// worker pool when at least inlineThreshold nodes are awake, and inline on
// the coordinator below that.
func TestFanOutThreshold(t *testing.T) {
	for _, tc := range []struct{ n, perRound int }{
		{inlineThreshold - 1, 0},
		{inlineThreshold, 2},
	} {
		var c barrierCounter
		res, err := RunStep(ring(t, tc.n), func(sc *StepCtx) Machine {
			return dietMachine{c: sc, rounds: 10}
		}, WithWorkers(2), WithRecorder(&c))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.spans.Load(), int64(tc.perRound*res.Metrics.Rounds); got != want {
			t.Errorf("ring:%d at 2 workers: %d fanned-out phases in %d rounds, want %d",
				tc.n, got, res.Metrics.Rounds, want)
		}
	}
}

// poolRelay forwards on link 0, every round, the sum of what it has
// received plus its own id, so a message delivered late, twice or not at
// all changes every later inbox digest. Node failNode calls Failf in round
// failAt.
type poolRelay struct {
	c        *StepCtx
	rounds   int
	failNode graph.NodeID
	failAt   int
	acc      int64
}

func (m *poolRelay) Step(in Input) bool {
	for _, msg := range in.Msgs {
		m.acc += msg.Payload.(int64)
	}
	if in.Round == m.failAt && m.c.ID() == m.failNode {
		m.c.Failf("pool relay: node %d fails in round %d", m.failNode, in.Round)
	}
	if in.Round == m.rounds {
		return true
	}
	m.c.Send(0, m.acc+int64(m.c.ID()))
	return false
}

func (m *poolRelay) Result() any        { return m.acc }
func (m *poolRelay) SnapshotState() any { return m.acc }
func (m *poolRelay) RestoreState(s any) { m.acc = s.(int64) }

func poolRelayProgram(rounds int, failNode graph.NodeID, failAt int) StepProgram {
	return func(c *StepCtx) Machine {
		return &poolRelay{c: c, rounds: rounds, failNode: failNode, failAt: failAt}
	}
}

// shardSpans is a Recorder that counts the step and deliver spans of every
// shard in every round.
type shardSpans struct {
	rounds, shards int
	spans          [2][]atomic.Int32 // by PhaseStep, PhaseDeliver; then round*shards+shard
}

func (c *shardSpans) RunStart(_ int, _ Engine, _, shards int) {
	c.shards = shards
	for p := range c.spans {
		c.spans[p] = make([]atomic.Int32, (c.rounds+1)*shards)
	}
}
func (*shardSpans) BeginPhase(Phase, int) int64 { return 0 }
func (c *shardSpans) EndPhase(p Phase, shard, round int, _ int64) {
	if p != PhaseBarrier {
		c.spans[p][round*c.shards+shard].Add(1)
	}
}
func (*shardSpans) FastForward(int, int)                   {}
func (*shardSpans) RoundEnd(int, int, SlotState, *Metrics) {}
func (*shardSpans) RunEnd(*Metrics)                        {}

// waitEngineGoroutines fails the test unless the goroutine count falls to
// idle within a few seconds of a run's end.
func waitEngineGoroutines(t *testing.T, idle int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the run, %d outside it",
				runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerPool runs a relay on the smallest ring whose rounds all fan
// out, at 2, 3, 4 and 8 workers (8 oversubscribes a 2-vCPU host). Every
// shard must run the step phase once per round, and the deliver phase once
// per round that delivers (all but the last), and the transcript must equal
// the 1-worker transcript. The engine's goroutines must be gone after a
// clean run and after each way a run can fail mid-round: a Failf in a
// worker's shard, the round budget, and a checkpoint sink error.
func TestWorkerPool(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	g := ring(t, inlineThreshold)
	last := graph.NodeID(g.N() - 1) // in the last shard, which a worker runs
	clean := poolRelayProgram(rounds, -1, -1)
	ref, _, err := runStepTranscript(t, g, clean)
	if err != nil {
		t.Fatal(err)
	}
	errSink := errors.New("checkpoint sink full")
	ends := []struct {
		name string
		prog StepProgram
		opts []Option
		is   func(error) bool
	}{
		{"failf", poolRelayProgram(rounds, last, rounds/2), nil,
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "pool relay: node") }},
		{"max-rounds", clean, []Option{WithMaxRounds(rounds / 2)},
			func(err error) bool { return errors.Is(err, ErrMaxRounds) }},
		{"checkpoint-sink", clean, []Option{WithCheckpoints(&CheckpointSpec{
			At:   []int{rounds / 2},
			Sink: func(*Checkpoint) error { return errSink },
		})}, func(err error) bool { return errors.Is(err, errSink) }},
	}
	// Outside a run, each subtest below sees the goroutines alive now plus
	// its own and its parent's, which waits in t.Run. Counting here rather
	// than in the subtest keeps the goroutine of the subtest before it,
	// which may not have exited yet, out of the count.
	idle := runtime.NumGoroutine() + 2
	for _, workers := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("clean", func(t *testing.T) {
				spans := shardSpans{rounds: rounds}
				got, res, err := runStepTranscript(t, g, clean, WithWorkers(workers), WithRecorder(&spans))
				if err != nil {
					t.Fatal(err)
				}
				waitEngineGoroutines(t, idle)
				if res.Metrics.Rounds != rounds+1 || spans.shards != workers {
					t.Fatalf("%d rounds on %d shards, want %d on %d",
						res.Metrics.Rounds, spans.shards, rounds+1, workers)
				}
				for r := 0; r <= rounds; r++ {
					for s := 0; s < spans.shards; s++ {
						wantDeliver := int32(1)
						if r == rounds {
							wantDeliver = 0
						}
						i := r*spans.shards + s
						if st, dl := spans.spans[PhaseStep][i].Load(), spans.spans[PhaseDeliver][i].Load(); st != 1 || dl != wantDeliver {
							t.Fatalf("round %d shard %d ran step %d and deliver %d times, want 1 and %d",
								r, s, st, dl, wantDeliver)
						}
					}
				}
				if !bytes.Equal(got, ref) {
					t.Fatal("transcript differs from the 1-worker transcript")
				}
			})
			for _, tc := range ends {
				t.Run(tc.name, func(t *testing.T) {
					_, err := RunStep(g, tc.prog, append([]Option{WithWorkers(workers)}, tc.opts...)...)
					if !tc.is(err) {
						t.Fatalf("run ended with %v", err)
					}
					waitEngineGoroutines(t, idle)
				})
			}
		})
	}
}
