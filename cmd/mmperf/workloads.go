package main

// workloads.go is the workload table: what one operation of each workload
// calls, on which topology, and how its result is verified.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/coloring"
	"repro/internal/fault"
	"repro/internal/forest"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/size"
)

// instance is one workload's set-up state: the topology and fault plan built
// from the seed, and the verification references computed from them outside
// the timed region.
type instance struct {
	g      graph.Topology
	seed   int64
	faults *fault.Plan // nil when fault-free

	wantN   int        // node count every census must report
	wantMST *graph.MST // Kruskal's MST (paper-random)
	inputs  globalfunc.Inputs
	wantSum int64 // globalfunc.Reference over inputs (paper-random)
}

// counts are the exact, seed-determined counts an op reports. Every op of a
// run must report the same counts; a performance change must never move
// them.
type counts map[string]int64

// workload is one row of the table.
type workload struct {
	name string
	// spec is the topology, in graph.ParseSpec's grammar.
	spec string
	// plan renders the fault plan for an n-node topology; nil means
	// fault-free.
	plan func(n int, seed int64) string
	// refs computes the verification references.
	refs func(in *instance) error
	// op runs one operation through t and verifies it.
	op func(in *instance, t *tracer) (counts, error)
}

// workloads is the benchmark. Why each one exists is in README.md.
var workloads = []workload{
	{name: "census-ring", spec: "ring:250000", refs: nodeCountRef, op: censusOp},
	{name: "coloring-torus", spec: "torus:256x256", refs: nodeCountRef, op: coloringOp},
	{name: "paper-random", spec: "random:512,1024", refs: paperRefs, op: paperOp},
	{name: "census-chaos", spec: "ring:100000", plan: chaosPlan, refs: nodeCountRef, op: chaosOp},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func nodeCountRef(in *instance) error {
	in.wantN = in.g.N()
	return nil
}

func metricCounts(m *sim.Metrics) counts {
	return counts{"sim.rounds": int64(m.Rounds), "sim.messages": m.Messages}
}

// Ops return their counts even when verification fails, so a run whose
// every op fails still reports every metric.

func censusOp(in *instance, t *tracer) (counts, error) {
	var res *size.CensusResult
	if err := t.call("size.census", func() (err error) {
		res, err = size.Census(in.g, in.seed)
		return err
	}); err != nil {
		return nil, err
	}
	return metricCounts(&res.Metrics), wantCount("census", res.N, in.wantN)
}

func wantCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s counted %d nodes, want %d", what, got, want)
	}
	return nil
}

func coloringOp(in *instance, t *tracer) (counts, error) {
	var (
		f     *forest.Forest
		total int
		bfs   sim.Metrics
	)
	if err := t.call("forest.bfs", func() (err error) {
		f, total, bfs, err = forest.BFS(in.g, in.seed)
		return err
	}); err != nil {
		return nil, err
	}
	var (
		colors []int
		col    sim.Metrics
	)
	if err := t.call("coloring.color", func() (err error) {
		colors, col, err = coloring.Distributed(f, in.seed)
		return err
	}); err != nil {
		return nil, err
	}
	bfs.Add(&col)
	errs := []error{wantCount("bfs", total, in.wantN)}
	parent := coloring.ParentInts(f)
	if !coloring.IsLegalColoring(parent, colors) || !coloring.IsRootedMIS(parent, colors) {
		errs = append(errs, errors.New("coloring is not a legal 3-coloring with a rooted MIS"))
	}
	return metricCounts(&bfs), errors.Join(errs...)
}

func paperRefs(in *instance) error {
	want, err := graph.Kruskal(in.g)
	if err != nil {
		return err
	}
	in.wantMST = want
	seed := uint64(in.seed)
	in.inputs = func(v graph.NodeID) int64 { return int64(fault.Mix64(seed, uint64(v), 0x5eed) % 1_000_000) }
	in.wantSum = globalfunc.Reference(in.g, globalfunc.Sum, in.inputs)
	return nil
}

// paperOp is the paper's two headline algorithms: the §6 MST (the §3
// deterministic partition, then the multimedia merge) and the §5 global sum
// (randomized partition, Metcalfe–Boggs channel stage).
func paperOp(in *instance, t *tracer) (counts, error) {
	var (
		f  *forest.Forest
		pm *sim.Metrics
	)
	if err := t.call("partition.det", func() (err error) {
		f, pm, _, err = partition.Deterministic(in.g, in.seed)
		return err
	}); err != nil {
		return nil, err
	}
	var tree *mst.Result
	if err := t.call("mst.merge", func() (err error) {
		tree, err = mst.MultimediaFromForest(in.g, in.seed, f, pm)
		return err
	}); err != nil {
		return nil, err
	}
	var sum *globalfunc.Result
	if err := t.call("globalfunc.sum", func() (err error) {
		sum, err = globalfunc.Multimedia(in.g, in.seed, globalfunc.Sum, in.inputs,
			globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
		return err
	}); err != nil {
		return nil, err
	}
	total := tree.Total
	total.Add(&sum.Total)
	c := metricCounts(&total)
	c["resolve.slots_collision"] = sum.Total.SlotsCollision
	c["resolve.slots_success"] = sum.Total.SlotsSuccess
	var errs []error
	if !tree.MST.Equal(in.wantMST) {
		errs = append(errs, errors.New("mst differs from Kruskal's"))
	}
	if sum.Value != in.wantSum {
		errs = append(errs, fmt.Errorf("sum = %d, want %d", sum.Value, in.wantSum))
	}
	return c, errors.Join(errs...)
}

// chaosPlan delays, jams, and crash-restarts the census. dup: rules are left
// out: they wedge the census into ErrMaxRounds.
func chaosPlan(n int, seed int64) string {
	return fmt.Sprintf("seed:%d;delay:*@1-/d3/p0.02;jam:1-/p0.3;crash:%d@100;restart:%d@120", seed, n/2, n/2)
}

// byteCounter is a discarding writer that counts what it is given.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// chaosOp runs the census under the fault plan with a transcript and one
// checkpoint about half-way, then decodes the checkpoint and resumes it; the
// resumed run must end exactly where the uninterrupted one did.
func chaosOp(in *instance, t *tracer) (counts, error) {
	var transcript byteCounter
	tw := sim.NewTranscriptWriter(&transcript, false)
	var ckpt bytes.Buffer
	captures := 0
	spec := &sim.CheckpointSpec{At: []int{3 * in.g.N() / 4}, Sink: func(cp *sim.Checkpoint) error {
		captures++
		return t.call("sim.checkpoint_encode", func() error {
			_, err := cp.WriteTo(&ckpt)
			return err
		})
	}}
	var res *size.CensusResult
	if err := t.call("size.census", func() (err error) {
		res, err = size.Census(in.g, in.seed, sim.WithFaults(in.faults),
			sim.WithTranscript(tw), sim.WithCheckpoints(spec))
		return err
	}); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("transcript: %w", err)
	}
	if captures != 1 {
		return nil, fmt.Errorf("%d checkpoints captured, want 1", captures)
	}
	m := &res.Metrics
	c := metricCounts(m)
	c["fault.events"] = m.Crashed + m.DroppedFault + m.Delayed + m.Duplicated +
		m.SlotsJammed + m.PartitionedDrop + m.Restarted + m.Skewed
	c["sim.transcript_bytes"] = int64(transcript)
	c["sim.checkpoint_bytes"] = int64(ckpt.Len())

	var cp *sim.Checkpoint
	if err := t.call("sim.checkpoint_decode", func() (err error) {
		cp, err = sim.ReadCheckpoint(&ckpt)
		return err
	}); err != nil {
		return nil, err
	}
	var resumed *sim.Result
	if err := t.call("sim.resume", func() (err error) {
		one := func(graph.NodeID) int64 { return 1 }
		resumed, err = sim.Resume(in.g, globalfunc.P2PStepProgram(globalfunc.Sum, one), cp)
		return err
	}); err != nil {
		return nil, err
	}
	errs := []error{wantCount("census", res.N, in.wantN)}
	if resumed.Metrics != res.Metrics {
		errs = append(errs, fmt.Errorf("resumed run ended with %+v, uninterrupted with %+v", resumed.Metrics, res.Metrics))
	}
	for v, r := range resumed.Results {
		if r != int64(in.wantN) {
			errs = append(errs, fmt.Errorf("resumed node %d reported %v, want %d", v, r, in.wantN))
			break
		}
	}
	return c, errors.Join(errs...)
}
