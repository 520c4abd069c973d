package repro

// difftest_test.go is the randomized half of the differential harness: a
// seeded generator draws (graph, algorithm, seed, worker count, fault plan)
// tuples and asserts that one worker and the tuple's worker count produce
// bit-identical outcomes — value or error — for every tuple. The same
// driver doubles as a fuzz target, so `go test -fuzz=FuzzEngineEquivalence`
// explores the tuple space beyond the seeded table.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/replay"
	"repro/internal/sim"
)

// diffFaultPlans is the pool of fault plans tuples draw from (index 0: no
// faults). Plans are parsed per use so each run compiles its own injector.
var diffFaultPlans = []string{
	"",
	"seed:3;crash:2@3",
	"seed:7;jam:1-6/p0.5",
	"seed:9;drop:*@2-12/p0.3",
	"seed:11;crash:4@5;jam:3-4;dup:*@2-9/p0.2/d2",
	"seed:13;delay:*@1-14/p0.4/d3",
	// Chaos v2 (append-only: corpus entries index this pool by position).
	"seed:15;partition:2@3-8",
	"seed:19;crash:3@4;restart:3@9",
	"seed:21;drop:*@2-4/e8/p0.5;jam:3-4/e6",
	"seed:23;partition:3@2-5;crash:2@3;restart:2@10;delay:*@1-12/p0.2/d2",
}

// diffTuple is one generated differential test case.
type diffTuple struct {
	proto   difftest.Protocol
	spec    string // graph.ParseSpec spec, built with gseed
	gseed   int64
	seed    int64
	workers int
	plan    string
}

func (d diffTuple) String() string {
	return fmt.Sprintf("%s/%s-gs%d-s%d-w%d-f%q",
		d.proto.Name, d.spec, d.gseed, d.seed, d.workers, d.plan)
}

// tupleSpecs are the topologies tuples draw from, indexed by topoSel. The
// positions are fixed so corpus entries map stably onto cases: selectors
// 0-3 keep their historical families (mat: keeps the ring, path and star
// stored), and the committed corpus predates the implicit and
// heavy-tailed additions in 4-7.
var tupleSpecs = []string{
	"mat:ring:%d", "mat:path:%d", "random:%[1]d,%[1]d", "mat:star:%d",
	"ring:%d", "btree:%d", "ba:%d,2", "ws:%d,4,0.25",
}

// makeTuple derives a tuple from raw draws (shared by the seeded table and
// the fuzz target).
func makeTuple(protoSel, topoSel, nSel uint8, gseed, seed int64, workerSel, planSel uint8) diffTuple {
	protos := difftest.Protocols()
	return diffTuple{
		proto:   protos[int(protoSel)%len(protos)],
		spec:    fmt.Sprintf(tupleSpecs[int(topoSel)%len(tupleSpecs)], 10+int(nSel)%30),
		gseed:   1 + gseed%100,
		seed:    1 + seed%100,
		workers: []int{1, 2, 5}[int(workerSel)%3],
		plan:    diffFaultPlans[int(planSel)%len(diffFaultPlans)],
	}
}

// pairedWorkers is the worker count checked against one worker: the
// tuple's own, or 4 when that is 1. It is the pair reduceDivergence
// bisects.
func (d diffTuple) pairedWorkers() int {
	if d.workers == 1 {
		return 4
	}
	return d.workers
}

// checkTuple runs one tuple at 1 and at its paired worker count and fails
// on any divergence.
func checkTuple(t *testing.T, d diffTuple) {
	t.Helper()
	g, err := graph.ParseSpec(d.spec, d.gseed)
	if err != nil {
		t.Fatal(err)
	}
	var plan *fault.Plan
	if d.plan != "" {
		if plan, err = fault.Parse(d.plan); err != nil {
			t.Fatal(err)
		}
	}
	oldPlan, oldMax, oldW := sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultWorkers
	sim.DefaultFaults, sim.DefaultMaxRounds = plan, 1500
	defer func() {
		sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultWorkers = oldPlan, oldMax, oldW
	}()

	sim.DefaultWorkers = 1
	want := capture(d.proto.Run, g, d.seed)
	sim.DefaultWorkers = d.pairedWorkers()
	got := capture(d.proto.Run, g, d.seed)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%v: worker counts diverge:\n w1:  %#v\n w%d: %#v\n%s",
			d, want, d.pairedWorkers(), got, reduceDivergence(d, g, plan))
	}
}

// reduceDivergence is the fuzz loop's `mmreplay -bisect` hookup: when a
// tuple diverges, reduce it to the first round whose full checkpointed
// engine state differs between worker counts 1 and the tuple's paired
// count. Only single-run protocols (replay.Program) can be state-bisected;
// for the multi-run rest, print the single-run search the developer can
// start from by hand.
func reduceDivergence(d diffTuple, g graph.Topology, plan *fault.Plan) string {
	var buf bytes.Buffer
	wb := d.pairedWorkers()
	prog, err := replay.Program(d.proto.Name)
	if err != nil {
		fmt.Fprintf(&buf, "auto-reduce: %s is a multi-run protocol, and state bisection covers only the single-run census|estimate; try:\n"+
			"  go run ./cmd/mmreplay -bisect -algo census -graph %s -seed %d -faults %q -workers-a 1 -workers-b %d\n",
			d.proto.Name, d.spec, d.gseed, d.plan, wb)
		return buf.String()
	}
	fmt.Fprintf(&buf, "auto-reduce (state bisection, workers 1 vs %d):\n", wb)
	if err := replay.BisectStates(&buf, g, prog, d.seed, plan, 1500, 1, wb); err != nil && !errors.Is(err, replay.ErrDiverged) {
		fmt.Fprintf(&buf, "bisect failed: %v\n", err)
	}
	return buf.String()
}

// TestDivergenceHintRebuildsGraph: the repro command reduceDivergence
// prints for a multi-run protocol names the tuple's own graph, a spec that
// graph.ParseSpec (and so mmreplay) builds with the printed graph seed.
func TestDivergenceHintRebuildsGraph(t *testing.T) {
	protoSel := -1
	for i, p := range difftest.Protocols() {
		if _, err := replay.Program(p.Name); err != nil {
			protoSel = i
			break
		}
	}
	if protoSel < 0 {
		t.Fatal("no multi-run protocol in the registry")
	}
	for topoSel := range tupleSpecs {
		d := makeTuple(uint8(protoSel), uint8(topoSel), 7, 41, 12, 0, 0)
		if _, err := graph.ParseSpec(d.spec, d.gseed); err != nil {
			t.Errorf("topoSel %d: spec %q: %v", topoSel, d.spec, err)
		}
		want := fmt.Sprintf("-graph %s -seed %d ", d.spec, d.gseed)
		if hint := reduceDivergence(d, nil, nil); !strings.Contains(hint, want) {
			t.Errorf("topoSel %d: hint lacks %q:\n%s", topoSel, want, hint)
		}
	}
}

// TestSeededRandomDifferential draws a fixed table of tuples from a seeded
// RNG — deterministic in CI, broad across protocols, topologies, worker
// counts, and fault plans.
func TestSeededRandomDifferential(t *testing.T) {
	const tuples = 40
	rng := rand.New(rand.NewSource(20260729))
	for i := 0; i < tuples; i++ {
		d := makeTuple(
			uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)),
			rng.Int63n(1000), rng.Int63n(1000),
			uint8(rng.Intn(256)), uint8(rng.Intn(256)),
		)
		t.Run(fmt.Sprintf("%02d-%s", i, d.proto.Name), func(t *testing.T) {
			checkTuple(t, d)
		})
	}
}

// FuzzEngineEquivalence lets the fuzzer explore the tuple space: any input
// on which the worker counts diverge is a determinism bug. (The name
// predates the single engine; it is kept so the corpus under
// testdata/fuzz/FuzzEngineEquivalence still loads.)
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(6), int64(1), int64(1), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(22), int64(7), int64(9), uint8(1), uint8(4))
	f.Add(uint8(12), uint8(1), uint8(15), int64(3), int64(2), uint8(2), uint8(2))
	f.Add(uint8(15), uint8(3), uint8(9), int64(5), int64(5), uint8(1), uint8(5))
	// census (a sleep/wake wavefront) under network-wide delays: delayed
	// deliveries park the whole network between wavefront steps, so this
	// seed drives the step engine's quiescent-round fast-forward.
	f.Add(uint8(10), uint8(0), uint8(20), int64(2), int64(3), uint8(0), uint8(5))
	// mst (SleepUntilPulse barriers) under a jam window: pulse wakes that
	// must survive fast-forwarding over jammed slots.
	f.Add(uint8(3), uint8(0), uint8(12), int64(4), int64(6), uint8(2), uint8(2))
	// census on an *implicit* ring (topoSel 4) under delays: adjacency
	// computed into the shards' AdjView scratch, not stored, must be
	// transcript-identical across worker counts on the same topology.
	f.Add(uint8(10), uint8(4), uint8(20), int64(2), int64(3), uint8(1), uint8(5))
	// mst on an implicit binary tree (topoSel 5), fault-free, workers 5.
	f.Add(uint8(3), uint8(5), uint8(17), int64(8), int64(4), uint8(2), uint8(0))
	// Chaos v2: census through a partition window that cuts and heals
	// mid-wavefront (planSel 6), and sync-sum through a crash-restart
	// (planSel 7) — the restarted node re-enters with a fresh RNG stream.
	f.Add(uint8(10), uint8(0), uint8(16), int64(2), int64(3), uint8(1), uint8(6))
	f.Add(uint8(16), uint8(3), uint8(14), int64(5), int64(8), uint8(2), uint8(7))
	// Recurring windows (planSel 8) over the mst pulse barriers, and the
	// combined partition+restart+delay storm (planSel 9) on an implicit
	// ring — the heaviest chaos the contract must hold under.
	f.Add(uint8(3), uint8(0), uint8(12), int64(4), int64(6), uint8(2), uint8(8))
	f.Add(uint8(10), uint8(4), uint8(20), int64(2), int64(3), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, protoSel, topoSel, nSel uint8, gseed, seed int64, workerSel, planSel uint8) {
		if gseed < 0 || seed < 0 {
			t.Skip("negative seeds normalize to themselves; skip to keep the corpus tidy")
		}
		checkTuple(t, makeTuple(protoSel, topoSel, nSel, gseed, seed, workerSel, planSel))
	})
}
