package repro

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/size"
)

// withEngine runs f with the process-wide default engine switched, so the
// protocols under test route every internal sim.Run through it.
func withEngine(t *testing.T, e sim.Engine, f func()) {
	t.Helper()
	old := sim.DefaultEngine
	sim.DefaultEngine = e
	defer func() { sim.DefaultEngine = old }()
	f()
}

// equivalenceTopologies are the topology families the paper evaluates.
var equivalenceTopologies = []struct {
	name string
	mk   func() (*graph.Graph, error)
}{
	{"ring48", func() (*graph.Graph, error) { return graph.Ring(48, 2) }},
	{"random33", func() (*graph.Graph, error) { return graph.RandomConnected(33, 66, 10) }},
	{"ray4x4", func() (*graph.Graph, error) { return graph.Ray(4, 4, 9) }},
}

// TestEngineEquivalence is the cross-engine determinism gate: for a fixed
// seed, the goroutine engine and the step engine must produce byte-identical
// results and identical metrics for every protocol in the differential
// registry — the full `mmnet -algo` suite — on every topology family the
// paper evaluates.
func TestEngineEquivalence(t *testing.T) {
	for _, topo := range equivalenceTopologies {
		for _, proto := range difftest.Protocols() {
			t.Run(topo.name+"/"+proto.Name, func(t *testing.T) {
				g, err := topo.mk()
				if err != nil {
					t.Fatal(err)
				}
				var want, got any
				withEngine(t, sim.EngineGoroutine, func() {
					want, err = proto.Run(g, 1)
				})
				if err != nil {
					t.Fatalf("goroutine engine: %v", err)
				}
				withEngine(t, sim.EngineStep, func() {
					got, err = proto.Run(g, 1)
				})
				if err != nil {
					t.Fatalf("step engine: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("engines diverge:\n goroutine: %#v\n step:      %#v", want, got)
				}
			})
		}
	}
}

// TestEngineEquivalenceUnderFaults extends the determinism gate to fault
// injection: under a nontrivial plan combining a crash, a jam window, and a
// lossy link, every protocol must still produce a bit-identical transcript
// on the goroutine engine and the step engine at several worker counts —
// whether the faulted run completes or fails, the outcome (value or error)
// must be identical.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	plan, err := fault.Parse("seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5")
	if err != nil {
		t.Fatal(err)
	}
	oldPlan := sim.DefaultFaults
	sim.DefaultFaults = plan
	defer func() { sim.DefaultFaults = oldPlan }()
	// Protocols wedged by the crash livelock until the round budget runs
	// out; a tight budget keeps those cases cheap. Completing runs on these
	// small graphs finish far below it.
	oldMax := sim.DefaultMaxRounds
	sim.DefaultMaxRounds = 2000
	defer func() { sim.DefaultMaxRounds = oldMax }()

	for _, topo := range equivalenceTopologies {
		for _, proto := range difftest.Protocols() {
			t.Run(topo.name+"/"+proto.Name, func(t *testing.T) {
				g, err := topo.mk()
				if err != nil {
					t.Fatal(err)
				}
				var want outcome
				withEngine(t, sim.EngineGoroutine, func() {
					want = capture(proto.Run, g, 1)
				})
				for _, workers := range []int{1, 4} {
					var got outcome
					oldW := sim.DefaultWorkers
					sim.DefaultWorkers = workers
					withEngine(t, sim.EngineStep, func() {
						got = capture(proto.Run, g, 1)
					})
					sim.DefaultWorkers = oldW
					if !reflect.DeepEqual(want, got) {
						t.Errorf("faulted engines diverge (step workers=%d):\n goroutine: %#v\n step:      %#v",
							workers, want, got)
					}
				}
			})
		}
	}
}

// engineRecorder records the engine every run announces at RunStart.
type engineRecorder struct {
	mu      sync.Mutex
	engines []sim.Engine
}

func (r *engineRecorder) RunStart(_ int, e sim.Engine, _, _ int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engines = append(r.engines, e)
}
func (r *engineRecorder) BeginPhase(sim.Phase, int) int64                { return 0 }
func (r *engineRecorder) EndPhase(sim.Phase, int, int, int64)            {}
func (r *engineRecorder) FastForward(int, int)                           {}
func (r *engineRecorder) RoundEnd(int, int, sim.SlotState, *sim.Metrics) {}
func (r *engineRecorder) RunEnd(*sim.Metrics)                            {}

// TestRegistryRunsNative checks that no protocol rides the goroutine
// adapter: with the goroutine engine as the process default, every run of
// every registry entry must still announce the native step engine.
func TestRegistryRunsNative(t *testing.T) {
	g, err := graph.Ring(48, 2)
	if err != nil {
		t.Fatal(err)
	}
	old := sim.DefaultRecorder
	defer func() { sim.DefaultRecorder = old }()
	for _, proto := range difftest.Protocols() {
		rec := &engineRecorder{}
		sim.DefaultRecorder = rec
		withEngine(t, sim.EngineGoroutine, func() {
			if _, err := proto.Run(g, 1); err != nil {
				t.Fatalf("%s: %v", proto.Name, err)
			}
		})
		if len(rec.engines) == 0 {
			t.Errorf("%s: no run observed", proto.Name)
		}
		for i, e := range rec.engines {
			if e != sim.EngineStep {
				t.Errorf("%s: run %d used the %v engine", proto.Name, i, e)
			}
		}
	}
}

// outcome captures a run's full observable result: its value on success or
// its error string on failure.
type outcome struct {
	value any
	err   string
}

func capture(run func(g graph.Topology, seed int64) (any, error), g graph.Topology, seed int64) outcome {
	v, err := run(g, seed)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{value: v}
}

// TestMillionNodeRingCensus is the scale gate of ISSUE 1: the native step
// engine must run a 10⁶-node ring count (network-size) protocol to
// completion. The sleep/wake wavefront makes this a few seconds of work;
// the goroutine engine would need ~1.5·10¹² channel handoffs.
func TestMillionNodeRingCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node census skipped in -short mode")
	}
	const n = 1_000_000
	g, err := graph.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := size.Census(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("census = %d, want %d", res.N, n)
	}
	if res.Metrics.Messages != 4*(n-1)+2 {
		// explore+ack on both directed halves, value+result along the tree:
		// 2m explores/acks + (n-1) values + (n-1) results, m = n on a ring.
		t.Logf("messages = %d (informational)", res.Metrics.Messages)
	}
}
