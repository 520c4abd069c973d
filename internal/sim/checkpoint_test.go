package sim

// checkpoint_test.go verifies the checkpoint/restore contract: capture is a
// pure observation (the checkpointed run's transcript is unchanged), resumed
// runs stitch byte-identically onto the original's transcript prefix,
// checkpoints are byte-portable across worker counts, and machines that
// cannot snapshot refuse cleanly.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ckptToken is the test protocol's message and slot payload.
type ckptToken struct{ V int64 }

// ckptMachine exercises every checkpointed dimension: per-round RNG draws,
// point-to-point sends (inboxes and, under a delay/dup plan, the pending
// buffer), channel writes (slot state), and data-dependent halting.
type ckptMachine struct {
	c      *StepCtx
	rounds int
	sum    uint64
	limit  int
}

func (m *ckptMachine) Step(in Input) bool {
	m.rounds++
	for _, msg := range in.Msgs {
		m.sum = m.sum*31 + uint64(msg.Payload.(ckptToken).V)
	}
	if in.Slot.State == SlotSuccess {
		m.sum = m.sum*131 + uint64(in.Slot.From)
	}
	l := (m.rounds + int(m.c.ID())) % m.c.Degree()
	m.c.Send(l, ckptToken{V: int64(m.rounds)*1000 + int64(m.c.ID())})
	if m.c.Rand().Intn(3) == 1 {
		m.c.Broadcast(ckptToken{V: int64(m.c.ID())})
	}
	return m.rounds >= m.limit
}

func (m *ckptMachine) Result() any { return m.sum }

type ckptMachineState struct {
	Rounds int
	Sum    uint64
}

func (m *ckptMachine) SnapshotState() any {
	return ckptMachineState{Rounds: m.rounds, Sum: m.sum}
}

func (m *ckptMachine) RestoreState(state any) {
	s := state.(ckptMachineState)
	m.rounds, m.sum = s.Rounds, s.Sum
}

func init() {
	gob.Register(ckptToken{})
	gob.Register(ckptMachineState{})
}

func ckptProgram(limit int) StepProgram {
	return func(c *StepCtx) Machine { return &ckptMachine{c: c, limit: limit} }
}

// collectCheckpoints is a CheckpointSpec sink gathering every capture.
func collectCheckpoints(dst *[]*Checkpoint) func(*Checkpoint) error {
	return func(cp *Checkpoint) error {
		*dst = append(*dst, cp)
		return nil
	}
}

// runStepTranscript runs a step program with a transcript installed.
func runStepTranscript(t *testing.T, g graph.Topology, prog StepProgram, opts ...Option) ([]byte, *Result, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	res, err := RunStep(g, prog, append([]Option{WithTranscript(tw)}, opts...)...)
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return buf.Bytes(), res, err
}

// stitch cuts the reference transcript after the last frame with round ≤
// cut and appends the resumed transcript's frames (everything after its
// header frame).
func stitch(t *testing.T, ref, resumed []byte, cut int) []byte {
	t.Helper()
	offs, rounds := scanFrames(t, ref)
	cutOff := len(ref)
	for i, r := range rounds {
		if (r == -1 && i > 0) || r > cut { // final frame or first later round
			cutOff = offs[i]
			break
		}
	}
	roffs, _ := scanFrames(t, resumed)
	if len(roffs) < 2 {
		t.Fatalf("resumed transcript has %d frames", len(roffs))
	}
	out := append([]byte{}, ref[:cutOff]...)
	return append(out, resumed[roffs[1]:]...) // skip prelude+header frame
}

// resumeAndStitch resumes from cp with a transcript and asserts the stitched
// stream is byte-identical to ref; returns the resumed run's outcome.
func resumeAndStitch(t *testing.T, g graph.Topology, prog StepProgram, cp *Checkpoint, ref []byte, opts ...Option) (*Result, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	res, err := Resume(g, prog, cp, append([]Option{WithTranscript(tw)}, opts...)...)
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	got := stitch(t, ref, buf.Bytes(), cp.Round)
	if !bytes.Equal(got, ref) {
		t.Errorf("resume at round %d: stitched transcript differs from uninterrupted run (%d vs %d bytes)", cp.Round, len(got), len(ref))
	}
	return res, err
}

func TestCheckpointResumeStitchedByteIdentity(t *testing.T) {
	g := ring(t, 16)
	prog := ckptProgram(24)
	ref, want, err := runStepTranscript(t, g, prog, WithSeed(7), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 4} {
		var cps []*Checkpoint
		spec := &CheckpointSpec{Every: 5, Sink: collectCheckpoints(&cps)}
		raw, res, err := runStepTranscript(t, g, prog, WithSeed(7), WithWorkers(w), WithCheckpoints(spec))
		if err != nil {
			t.Fatal(err)
		}
		// Capture is an observation: transcript and result unchanged.
		if !bytes.Equal(raw, ref) {
			t.Fatalf("w%d: checkpointing changed the transcript", w)
		}
		if !reflect.DeepEqual(res.Results, want.Results) {
			t.Fatalf("w%d: checkpointing changed the results", w)
		}
		if len(cps) == 0 {
			t.Fatalf("w%d: no checkpoints captured", w)
		}
		for _, cp := range cps {
			if cp.Round%5 != 0 || cp.Round == 0 {
				t.Fatalf("w%d: checkpoint at unexpected round %d", w, cp.Round)
			}
			for _, rw := range []int{1, 4} {
				res, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(rw))
				if err != nil {
					t.Fatalf("resume r%d w%d: %v", cp.Round, rw, err)
				}
				if !reflect.DeepEqual(res.Results, want.Results) {
					t.Errorf("resume r%d w%d: results differ", cp.Round, rw)
				}
				if res.Metrics != want.Metrics {
					t.Errorf("resume r%d w%d: metrics = %+v, want %+v", cp.Round, rw, res.Metrics, want.Metrics)
				}
			}
		}
	}
}

func TestCheckpointFaultedResume(t *testing.T) {
	// Delay and dup keep the pending buffer populated; crashes and jams
	// shift alive counts and slot states. The checkpoint must carry all of
	// it through a resume bit-exactly.
	plan, err := fault.Parse("delay:0@2-9/d4;dup:1@3-8;crash:3@6;jam:5;jam:11")
	if err != nil {
		t.Fatal(err)
	}
	g := ring(t, 12)
	prog := ckptProgram(20)
	ref, want, err := runStepTranscript(t, g, prog, WithSeed(11), WithFaults(plan), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{1, 7, 13}, Sink: collectCheckpoints(&cps)}
	if _, _, err := runStepTranscript(t, g, prog, WithSeed(11), WithFaults(plan), WithWorkers(1), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("captured %d checkpoints, want 3", len(cps))
	}
	sawPending := false
	for _, cp := range cps {
		if cp.Plan == "" {
			t.Errorf("checkpoint at %d lost the fault plan", cp.Round)
		}
		sawPending = sawPending || len(cp.Pending) > 0
		res, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(2))
		if err != nil {
			t.Fatalf("resume r%d: %v", cp.Round, err)
		}
		if !reflect.DeepEqual(res.Results, want.Results) {
			t.Errorf("resume r%d: results differ", cp.Round)
		}
	}
	if !sawPending {
		t.Error("no checkpoint caught an in-flight delayed/duplicated message; the plan should keep the buffer busy")
	}
}

func TestCheckpointPortableAcrossWorkers(t *testing.T) {
	g := ring(t, 16)
	prog := ckptProgram(24)
	capture := func(w int) *Checkpoint {
		var cps []*Checkpoint
		spec := &CheckpointSpec{At: []int{10}, Sink: collectCheckpoints(&cps)}
		if _, err := RunStep(g, prog, WithSeed(7), WithWorkers(w), WithCheckpoints(spec)); err != nil {
			t.Fatal(err)
		}
		if len(cps) != 1 {
			t.Fatalf("w%d: %d checkpoints", w, len(cps))
		}
		return cps[0]
	}
	a, b := capture(1), capture(4)
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Error("checkpoint bytes differ between worker counts — canonical form broken")
	}

	back, err := ReadCheckpoint(bytes.NewReader(ab))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Error("checkpoint round-trip changed the value")
	}

	// Corruption: any flipped body byte must fail the crc.
	bad := bytes.Clone(ab)
	bad[len(bad)-6] ^= 1
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted checkpoint read cleanly")
	}
}

func TestCheckpointDuringFastForward(t *testing.T) {
	// Node 0 halts at once; the rest sleep forever. The engine fast-forwards
	// to the round budget and fails with ErrMaxRounds; checkpoints are still
	// due inside the skipped stretch (ffTarget clamps to them), and resuming
	// from one must reproduce the identical wedged transcript and error.
	prog := func(c *StepCtx) Machine { return &sleeperMachine{c: c} }
	g := ring(t, 4)
	ref, _, err := runStepTranscript(t, g, prog, WithSeed(1), WithMaxRounds(40), WithWorkers(1))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}

	var cps []*Checkpoint
	spec := &CheckpointSpec{Every: 7, Sink: collectCheckpoints(&cps)}
	_, _, err = runStepTranscript(t, g, prog, WithSeed(1), WithMaxRounds(40), WithWorkers(2), WithCheckpoints(spec))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("checkpointed run err = %v, want ErrMaxRounds", err)
	}
	if len(cps) < 5 {
		t.Fatalf("captured %d checkpoints, want one per 7 rounds of the wedged stretch", len(cps))
	}
	cp := cps[len(cps)/2]
	if _, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(1)); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("resume err = %v, want ErrMaxRounds", err)
	}
}

// sleeperMachine wedges the network: node 0 halts at once, everyone else
// sleeps forever. Its state is empty, which also covers nil Snapshotter
// states through the checkpoint encoding.
type sleeperMachine struct{ c *StepCtx }

func (m *sleeperMachine) Step(Input) bool {
	if m.c.ID() == 0 {
		return true
	}
	m.c.Sleep()
	return false
}

func (m *sleeperMachine) Result() any        { return nil }
func (m *sleeperMachine) SnapshotState() any { return nil }
func (m *sleeperMachine) RestoreState(any)   {}

// exportedStateMachine keeps all its state in exported fields but does not
// implement Snapshotter, so it cannot checkpoint.
type exportedStateMachine struct {
	c     *StepCtx
	Count int
	Acc   int64
}

func (m *exportedStateMachine) Step(in Input) bool {
	m.Count++
	for _, msg := range in.Msgs {
		m.Acc += msg.Payload.(ckptToken).V
	}
	if m.Count%2 == 1 {
		m.c.Send(m.c.Rand().Intn(m.c.Degree()), ckptToken{V: int64(m.Count)})
	}
	return m.Count >= 10
}

func (m *exportedStateMachine) Result() any { return m.Acc }

func TestCheckpointRejectedModes(t *testing.T) {
	g := ring(t, 4)
	// Machines without Snapshotter — closure state or exported fields alike
	// — fail the run at the first capture with a diagnostic naming the
	// node, instead of capturing garbage.
	for _, tc := range []struct {
		name string
		prog StepProgram
		want string
	}{
		{"closure", func(c *StepCtx) Machine {
			n := 0
			return &stepFuncs{step: func(Input) bool { n++; return n > 5 }}
		}, "sim: checkpoint at round 2: machine *sim.stepFuncs of node 0 is not a sim.Snapshotter"},
		{"exported fields", func(c *StepCtx) Machine { return &exportedStateMachine{c: c} },
			"sim: checkpoint at round 2: machine *sim.exportedStateMachine of node 0 is not a sim.Snapshotter"},
	} {
		_, err := RunStep(g, tc.prog, WithCheckpoints(&CheckpointSpec{At: []int{2}, Sink: func(*Checkpoint) error { return nil }}))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s machine: run error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestResumeRejectsStatelessLiveNode(t *testing.T) {
	// A hand-built checkpoint whose live node 2 carries no machine state:
	// resuming must fail rather than keep the freshly built machine.
	g := ring(t, 4)
	cp := &Checkpoint{Round: 2, N: 4, Seed: 1, MaxRounds: 100, Alive: 4, Nodes: make([]NodeCheckpoint, 4)}
	for v := range cp.Nodes {
		cp.Nodes[v] = NodeCheckpoint{Scheduled: true, HasState: true, State: ckptMachineState{Rounds: 2}}
	}
	cp.Nodes[2] = NodeCheckpoint{Scheduled: true}
	_, err := Resume(g, ckptProgram(10), cp)
	if want := "sim: checkpoint has no state for live node 2"; err == nil || err.Error() != want {
		t.Errorf("resume error %v, want %q", err, want)
	}
}

func TestResumeValidatesGraph(t *testing.T) {
	g := ring(t, 8)
	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{3}, Sink: collectCheckpoints(&cps)}
	if _, err := RunStep(g, ckptProgram(10), WithSeed(2), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ring(t, 9), ckptProgram(10), cps[0]); err == nil {
		t.Error("resume on a different-size graph accepted")
	}

	// Same node count, different wiring: the adjacency digest must reject it
	// (edge ids and link indices inside the checkpoint would be garbage).
	ga, err := graph.RandomConnected(8, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := graph.RandomConnected(8, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cps = cps[:0]
	if _, err := RunStep(ga, ckptProgram(10), WithSeed(2), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(gb, ckptProgram(10), cps[0]); err == nil {
		t.Error("resume on a same-size differently-wired graph accepted")
	}
	if _, err := Resume(ga, ckptProgram(10), cps[0]); err != nil {
		t.Errorf("resume on the capture graph rejected: %v", err)
	}
}

func TestTopologyDigestAllocations(t *testing.T) {
	// One AdjView scratch serves the whole pass: the digest of an implicit
	// ring costs a fixed handful of allocations, not one per node.
	g, err := graph.ImplicitRing(10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(5, func() { topologyDigest(g) }); a > 8 {
		t.Errorf("topologyDigest over implicit ring:10000 makes %.0f allocations, want at most 8", a)
	}
}
