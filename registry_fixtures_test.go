package repro

// registry_fixtures_test.go pins every protocol of the differential registry
// to committed bytes: for each (protocol, topology, fault plan) cell, one
// fixture under testdata/registry records the sha256 and length of the MMTR
// transcript stream covering every inner run of the protocol, plus the
// sha256 of its %#v outcome (value or error). Every worker count in
// harnessWorkers must reproduce the fixture, so the fixtures are the oracle
// a protocol or engine rewrite is held to.
//
// Fixtures are written only when missing (the test then fails, asking for
// the new file to be committed); an existing fixture is never rewritten.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// registryPlans are the fault plans every cell runs under.
var registryPlans = []struct{ name, plan string }{
	{"clean", ""},
	{"chaos", "seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5"},
}

// registryCell runs one protocol, with every inner run streaming into one
// transcript and limited to maxRounds rounds (2,000 for every committed
// fixture), and renders the cell's fixture. It also returns the outcome the
// fixture hashes.
func registryCell(t *testing.T, proto difftest.Protocol, g graph.Topology, plan *fault.Plan, maxRounds int) (string, outcome) {
	t.Helper()
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	oldT, oldF, oldM := sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds = tw, plan, maxRounds
	out := capture(t, proto.Run, g, 1)
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds = oldT, oldF, oldM
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("stream sha256:%x len:%d\noutcome sha256:%x\n",
		sha256.Sum256(buf.Bytes()), buf.Len(), sha256.Sum256([]byte(fmt.Sprintf("%#v", out)))), out
}

func TestRegistryFixtures(t *testing.T) {
	for _, proto := range difftest.Protocols() {
		for _, topo := range equivalenceTopologies {
			for _, p := range registryPlans {
				t.Run(proto.Name+"/"+topo.name+"/"+p.name, func(t *testing.T) {
					g, err := topo.mk()
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join("testdata", "registry", proto.Name, topo.name+"-"+p.name+".golden")
					pinCells(t, path, harnessWorkers, func(t *testing.T) string {
						fx, _ := registryCell(t, proto, g, mustPlan(t, p.plan), 2000)
						return fx
					})
				})
			}
		}
	}
}

// mustPlan parses a fault plan; "" is the fault-free plan (nil).
func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	if spec == "" {
		return nil
	}
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// pinCells renders one cell per worker count, each as its own step-wN
// subtest, and holds it to the fixture at path. A missing fixture is
// written from the first worker count (which then fails, asking for the
// file to be committed) and the remaining counts are held to it; an
// existing fixture is never rewritten.
func pinCells(t *testing.T, path string, workerCounts []int, cell func(t *testing.T) string) {
	t.Helper()
	want, err := os.ReadFile(path)
	missing := errors.Is(err, fs.ErrNotExist)
	if err != nil && !missing {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("step-w%d", workers), func(t *testing.T) {
			oldW := sim.DefaultWorkers
			sim.DefaultWorkers = workers
			defer func() { sim.DefaultWorkers = oldW }()
			got := cell(t)
			if missing {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Errorf("wrote missing fixture %s from step-w%d; commit it", path, workers)
				want, missing = []byte(got), false
				return
			}
			if got != string(want) {
				t.Errorf("deviates from %s:\n got:  %s want: %s", path, got, want)
			}
		})
	}
}

// scalePlans are the fault plans of TestRegistryPartitionScale. Under
// "drop", partition-lv on grid256 restarts once within the registry's
// 2,000-round budget.
var scalePlans = []struct{ name, plan string }{
	{"clean", ""},
	{"delay-dup-restart", "seed:11;delay:*@1-60/p0.2/d3;dup:*@5-40/p0.1/d2;crash:7@20;restart:7@150"},
	{"drop", "seed:9;drop:*@1-400/p0.05"},
}

// TestRegistryPartitionScale pins the §4 randomized partition, alone, with
// its Las Vegas verification, and under the §5 global stage, on graphs
// where its BFS trees reach a depth of several rounds and its iterations
// run hundreds of rounds, so the machine's per-phase timing shows in the
// transcript: the fixture graphs of TestRegistryFixtures are too small for
// that. Under -short it runs w1 and w4 on the first two plans.
func TestRegistryPartitionScale(t *testing.T) {
	topos := []struct{ name, spec string }{
		{"random512", "random:512,1024"},
		{"grid256", "grid:256"},
	}
	plans, workerCounts := scalePlans, harnessWorkers
	if testing.Short() {
		plans, workerCounts = scalePlans[:2], []int{1, 4}
	}
	protos := []string{"partition-rand", "partition-lv", "min-rand-mb"}
	for _, proto := range difftest.Protocols() {
		if !slices.Contains(protos, proto.Name) {
			continue
		}
		for _, topo := range topos {
			g, err := graph.ParseSpec(topo.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				t.Run(proto.Name+"/"+topo.name+"/"+p.name, func(t *testing.T) {
					path := filepath.Join("testdata", "registry", proto.Name, topo.name+"-"+p.name+".golden")
					pinCells(t, path, workerCounts, func(t *testing.T) string {
						fx, _ := registryCell(t, proto, g, mustPlan(t, p.plan), 2000)
						return fx
					})
				})
			}
		}
	}
}

// barrierCounter is a sim.Recorder that counts the coordinator's barrier
// spans: one per phase fanned out to the worker pool, none for a phase run
// inline. Its slotAudit checks each run's slot accounting.
type barrierCounter struct {
	slotAudit
	spans atomic.Int64
}

func (c *barrierCounter) EndPhase(p sim.Phase, shard, _ int, _ int64) {
	if p == sim.PhaseBarrier && shard == 0 {
		c.spans.Add(1)
	}
}

// TestRegistryFannedOut holds rounds that run on the worker pool to the
// byte-identity contract. No fixture topology has more than 48 nodes, so
// every fixture round runs inline on the coordinator. On torus:64x64 (4,096
// nodes) a round with every node awake fans out; these five entries have
// such rounds — partition-lv's include its channel verification — and run
// in under 2 s together. The budget is 4,000 rounds, as the §4 partitions
// need 3,105 (partition-rand) and 3,443 (partition-lv), and every cell
// under the clean plan must finish without an error. At every worker
// count, each cell's transcript stream and outcome must equal the 1-worker
// cell's, and past one worker at least one phase must have fanned out.
func TestRegistryFannedOut(t *testing.T) {
	protos := []string{"coloring", "partition-rand", "partition-lv", "sync-sum", "elect"}
	g, err := graph.ParseSpec("torus:64x64", 1)
	if err != nil {
		t.Fatal(err)
	}
	plans, workerCounts := registryPlans, harnessWorkers
	if testing.Short() {
		plans, workerCounts = registryPlans[:1], []int{1, 4}
	}
	for _, proto := range difftest.Protocols() {
		if !slices.Contains(protos, proto.Name) {
			continue
		}
		for _, p := range plans {
			t.Run(proto.Name+"/"+p.name, func(t *testing.T) {
				plan := mustPlan(t, p.plan)
				cell := func(workers int) (string, int64) {
					c := barrierCounter{slotAudit: slotAudit{t}}
					oldW, oldR := sim.DefaultWorkers, sim.DefaultRecorder
					sim.DefaultWorkers, sim.DefaultRecorder = workers, &c
					defer func() { sim.DefaultWorkers, sim.DefaultRecorder = oldW, oldR }()
					fx, out := registryCell(t, proto, g, plan, 4000)
					if plan == nil && out.err != "" {
						t.Errorf("step-w%d: fault-free run failed: %s", workers, out.err)
					}
					return fx, c.spans.Load()
				}
				want, spans := cell(1)
				if spans != 0 {
					t.Errorf("step-w1: %d phases fanned out, want 0", spans)
				}
				for _, workers := range workerCounts {
					if workers == 1 {
						continue
					}
					got, spans := cell(workers)
					if got != want {
						t.Errorf("step-w%d deviates from step-w1:\n got:  %s want: %s", workers, got, want)
					}
					if spans == 0 {
						t.Errorf("step-w%d: no phase fanned out to the worker pool", workers)
					}
				}
			})
		}
	}
}
