package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPhaseGateStress hammers the gate with the exact workerLoop protocol
// and asserts that every phase runs exactly once per worker before wait()
// returns. This is the regression test for the two stale-wake races: a
// coordinator that leaves wait() on a wake left over from a previous phase
// observes ran < workers (phase released early, workers still mutating),
// and a worker whose await() returns on a stale wake re-runs the phase and
// pushes ran past workers on a later check. Both spin budgets are forced
// explicitly: spinning waiters are the ones that strand wakes in flight,
// and parked-only waiters are the ones that stale wakes then claim.
func TestPhaseGateStress(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, spin := range []int{0, gateSpin} {
			t.Run(fmt.Sprintf("workers=%d/spin=%d", workers, spin), func(t *testing.T) {
				t.Parallel()
				rounds := 20000
				if testing.Short() {
					rounds = 1000 // keep the race-detector CI job fast
				}
				g := newPhaseGate(workers)
				g.spin = spin
				ran := make([]atomic.Int32, rounds+1)
				var wg sync.WaitGroup
				for i := 0; i < workers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						var epoch uint32
						for {
							epoch = g.await(i, epoch)
							phase := g.phase
							if phase != phaseExit {
								ran[epoch].Add(1)
							}
							g.finish()
							if phase == phaseExit {
								return
							}
						}
					}(i)
				}
				for r := 1; r <= rounds; r++ {
					g.release(phaseStep)
					g.wait()
					if n := ran[r].Load(); n != int32(workers) {
						t.Fatalf("epoch %d: phase ran %d worker-slices, want %d", r, n, workers)
					}
					// Re-check the previous epoch too: a double-run from a
					// stale worker wake lands there after wait() returned.
					if r > 1 {
						if n := ran[r-1].Load(); n != int32(workers) {
							t.Fatalf("epoch %d re-ran after release: %d worker-slices, want %d", r-1, n, workers)
						}
					}
				}
				g.release(phaseExit)
				g.wait()
				wg.Wait()
			})
		}
	}
}

// staleWakeGrace is how long the stale-wake tests give the buggy path to
// manifest. A waiter that wrongly accepts a stale wake returns within
// microseconds; the real signal is only produced after this grace, so the
// captured condition at return time is unambiguous.
const staleWakeGrace = 50 * time.Millisecond

// TestPhaseGateStaleCoordinatorWake constructs the review's first race by
// hand: a wake addressed to an already-completed wait claims the
// coordinator's park for the next phase while pending is still nonzero.
// wait must treat it as spurious and keep waiting; the buggy gate returned
// immediately, releasing the phase while workers were mid-mutation.
func TestPhaseGateStaleCoordinatorWake(t *testing.T) {
	g := newPhaseGate(1)
	g.spin = 0 // park immediately so the injected wake claims the park
	g.pending.Store(1)
	done := make(chan int32, 1)
	go func() {
		g.wait()
		done <- g.pending.Load()
	}()
	time.Sleep(staleWakeGrace) // let the coordinator park
	g.coord.wake()             // stale wake: no worker finished
	select {
	case p := <-done:
		t.Fatalf("wait returned on a stale wake with pending=%d", p)
	case <-time.After(staleWakeGrace):
	}
	g.pending.Store(0) // the real finish
	g.coord.wake()
	if p := <-done; p != 0 {
		t.Fatalf("wait returned with pending=%d, want 0", p)
	}
}

// TestPhaseGateStaleWorkerWake constructs the review's second race: a
// worker parked for the next epoch receives the delayed wake from a release
// it already observed by other means. await must absorb it and re-park; the
// buggy gate returned the unchanged epoch, making workerLoop re-run the
// phase and double-finish.
func TestPhaseGateStaleWorkerWake(t *testing.T) {
	g := newPhaseGate(1)
	g.spin = 0
	g.epoch.Store(1) // epoch 1 already observed by the worker out of band
	done := make(chan uint32, 1)
	go func() {
		done <- g.await(0, 1)
	}()
	time.Sleep(staleWakeGrace) // let the worker park for epoch 2
	g.workers[0].wake()        // the delayed wake from epoch 1's release
	select {
	case v := <-done:
		t.Fatalf("await returned epoch %d on a stale wake (last=1)", v)
	case <-time.After(staleWakeGrace):
	}
	g.phase = phaseStep // the real next release
	g.epoch.Add(1)
	g.workers[0].wake()
	if v := <-done; v != 2 {
		t.Fatalf("await returned epoch %d, want 2", v)
	}
}

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
