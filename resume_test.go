package repro

// resume_test.go is the checkpoint/restore half of the differential harness:
// for a sample of (protocol, graph, seed, plan) tuples it checkpoints a
// native step run at rounds {1, mid, last-1}, resumes each checkpoint at
// several worker counts, and requires the resumed transcript — stitched onto
// the uninterrupted run's prefix — to be byte-identical to the uninterrupted
// transcript. For the fault-free census it additionally requires the
// checkpointed program's transcript to be byte-identical to size.Census's,
// tying the checkpoint seam to the protocol the registry fixtures pin. The
// same driver doubles as a fuzz target.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/size"
)

// resumeMaxRounds bounds wedged faulted runs (a crashed BFS parent can
// stall the census forever); the budget error is part of the compared
// outcome.
const resumeMaxRounds = 300

var onesInputs = func(graph.NodeID) int64 { return 1 }

// resumeProtocols are the checkpointable native step protocols.
var resumeProtocols = []struct {
	name string
	prog sim.StepProgram
}{
	{"census", globalfunc.P2PStepProgram(globalfunc.Sum, onesInputs)},
	{"estimate", size.GLStepProgram()},
}

// runWithTranscript runs the program capturing its transcript; the run
// error is part of the outcome, not a test failure.
func runWithTranscript(t *testing.T, g graph.Topology, prog sim.StepProgram, opts ...sim.Option) ([]byte, *sim.Result, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	res, err := sim.RunStep(g, prog, append(opts, sim.WithTranscript(tw))...)
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return buf.Bytes(), res, err
}

// frameOffsets scans an uncompressed transcript independently of
// sim.TranscriptReader: byte offsets of every frame plus each round frame's
// round (-1 for header/final frames).
func frameOffsets(t *testing.T, raw []byte) (offsets, rounds []int) {
	t.Helper()
	if len(raw) < 6 || string(raw[:4]) != "MMTR" || raw[5] != 0 {
		t.Fatalf("not a plain transcript (%d bytes)", len(raw))
	}
	const frameRoundKind = 2
	off := 6
	for off < len(raw) {
		offsets = append(offsets, off)
		kind := raw[off]
		size, n := binary.Uvarint(raw[off+1:])
		if n <= 0 || off+1+n+int(size)+4 > len(raw) {
			t.Fatalf("bad frame at offset %d", off)
		}
		if kind == frameRoundKind {
			r, _ := binary.Uvarint(raw[off+1+n : off+1+n+int(size)])
			rounds = append(rounds, int(r))
		} else {
			rounds = append(rounds, -1)
		}
		off += 1 + n + int(size) + 4
	}
	return offsets, rounds
}

// stitchTranscripts replaces ref's frames after round cut with the resumed
// transcript's frames (its prelude and header frame dropped).
func stitchTranscripts(t *testing.T, ref, resumed []byte, cut int) []byte {
	t.Helper()
	offs, rounds := frameOffsets(t, ref)
	cutOff := len(ref)
	for i, r := range rounds {
		if (r == -1 && i > 0) || r > cut {
			cutOff = offs[i]
			break
		}
	}
	roffs, _ := frameOffsets(t, resumed)
	if len(roffs) < 2 {
		t.Fatalf("resumed transcript has only %d frames", len(roffs))
	}
	return append(append([]byte{}, ref[:cutOff]...), resumed[roffs[1]:]...)
}

// checkResumeTuple is the shared driver: reference the uninterrupted run,
// checkpoint at the requested rounds, resume each checkpoint at workers 1
// and 4, and require stitched byte-identity and equal outcomes.
func checkResumeTuple(t *testing.T, g graph.Topology, prog sim.StepProgram, seed int64, plan *fault.Plan, cuts []int) {
	t.Helper()
	base := []sim.Option{sim.WithSeed(seed), sim.WithFaults(plan), sim.WithMaxRounds(resumeMaxRounds)}
	ref, want, wantErr := runWithTranscript(t, g, prog, append(base, sim.WithWorkers(1))...)
	refW4, _, _ := runWithTranscript(t, g, prog, append(base, sim.WithWorkers(4))...)
	if !bytes.Equal(ref, refW4) {
		t.Fatalf("uninterrupted transcripts differ between workers 1 and 4\n%s", replay.DiffBytes(ref, refW4))
	}

	// Locate the last executed iteration: the final round frame's label.
	_, rounds := frameOffsets(t, ref)
	last := 0
	for _, r := range rounds {
		if r > last {
			last = r
		}
	}
	if last < 2 {
		t.Skipf("run too short to cut (%d rounds)", last)
	}

	var cps []*sim.Checkpoint
	spec := &sim.CheckpointSpec{Sink: func(cp *sim.Checkpoint) error { cps = append(cps, cp); return nil }}
	for _, c := range cuts {
		if c >= 1 && c <= last-1 {
			spec.At = append(spec.At, c)
		}
	}
	if len(spec.At) == 0 {
		t.Skipf("no valid cut among %v for a %d-round run", cuts, last)
	}
	ckRaw, _, _ := runWithTranscript(t, g, prog, append(base, sim.WithWorkers(2), sim.WithCheckpoints(spec))...)
	if !bytes.Equal(ckRaw, ref) {
		t.Fatalf("checkpoint capture changed the transcript\n%s", replay.DiffBytes(ref, ckRaw))
	}
	if len(cps) == 0 {
		t.Fatalf("no checkpoints captured at %v", spec.At)
	}

	for _, cp := range cps {
		for _, w := range []int{1, 4} {
			var buf bytes.Buffer
			tw := sim.NewTranscriptWriter(&buf, false)
			res, err := sim.Resume(g, prog, cp, sim.WithWorkers(w), sim.WithTranscript(tw))
			if cerr := tw.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("resume r%d w%d: err = %v, uninterrupted run had %v", cp.Round, w, err, wantErr)
			}
			if err == nil {
				if len(res.Results) != len(want.Results) {
					t.Fatalf("resume r%d w%d: %d results, want %d", cp.Round, w, len(res.Results), len(want.Results))
				}
				for v := range want.Results {
					if res.Results[v] != want.Results[v] {
						t.Errorf("resume r%d w%d: node %d result %v, want %v", cp.Round, w, v, res.Results[v], want.Results[v])
					}
				}
				if res.Metrics != want.Metrics {
					t.Errorf("resume r%d w%d: metrics diverge\n got %+v\nwant %+v", cp.Round, w, res.Metrics, want.Metrics)
				}
			}
			got := stitchTranscripts(t, ref, buf.Bytes(), cp.Round)
			if !bytes.Equal(got, ref) {
				// Auto-reduce the divergence to its first divergent round
				// and field — the in-process form of `mmreplay -diff`.
				t.Errorf("resume r%d w%d: stitched transcript differs from uninterrupted run (%d vs %d bytes)\n%s",
					cp.Round, w, len(got), len(ref), replay.DiffBytes(ref, got))
			}
		}
	}
}

// resumePlans are the fault plans the seeded resume table covers: none, a
// delay+dup storm (the pending-buffer stressor), and a crash+jam+dup mix.
var resumePlans = []string{
	"",
	"seed:17;delay:*@2-10/p0.3/d2;dup:*@3-9/p0.3/d3",
	"seed:11;crash:4@5;jam:3-4;dup:*@2-9/p0.2/d2",
	// Chaos v2 (append-only: fuzz corpus entries index this pool): a
	// partition that heals mid-run, so cuts land inside the window and the
	// restored run must still heal on schedule; and a crash-restart whose
	// revival lands inside a recurring jam window, so a resumed run must
	// re-derive the incarnation RNG and the jam schedule together.
	"seed:15;partition:2@3-9",
	"seed:19;crash:3@4;restart:3@9;jam:8-10/e6",
}

func TestCheckpointResumeDifferential(t *testing.T) {
	graphs := []struct {
		name string
		mk   func() (graph.Topology, error)
	}{
		{"ring26", func() (graph.Topology, error) { return graph.ImplicitRing(26, 3) }},
		{"random22", func() (graph.Topology, error) { return graph.RandomConnected(22, 30, 5) }},
	}
	for _, proto := range resumeProtocols {
		for _, gr := range graphs {
			for pi, planStr := range resumePlans {
				t.Run(fmt.Sprintf("%s/%s/plan%d", proto.name, gr.name, pi), func(t *testing.T) {
					g, err := gr.mk()
					if err != nil {
						t.Fatal(err)
					}
					var plan *fault.Plan
					if planStr != "" {
						if plan, err = fault.Parse(planStr); err != nil {
							t.Fatal(err)
						}
					}
					// Cut at {1, mid, last-1}; the driver derives "mid" and
					// "last" from the reference transcript and clamps.
					ref, _, _ := runWithTranscript(t, g, proto.prog, sim.WithSeed(9), sim.WithFaults(plan), sim.WithMaxRounds(resumeMaxRounds), sim.WithWorkers(1))
					_, rounds := frameOffsets(t, ref)
					last := 0
					for _, r := range rounds {
						last = max(last, r)
					}
					checkResumeTuple(t, g, proto.prog, 9, plan, []int{1, last / 2, last - 1})
				})
			}
		}
	}
}

// TestResumeCensusIsRegistryCensus ties the checkpoint seam to the registry
// fixtures: the program the resume suite checkpoints streams the same
// transcript as size.Census, the entry point the fixtures pin, and counts
// the ring exactly with the census's message bill — an explore and an ack
// per link, a value and a result per tree edge.
func TestResumeCensusIsRegistryCensus(t *testing.T) {
	const n = 26
	g, err := graph.ImplicitRing(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	native, _, err := runWithTranscript(t, g, resumeProtocols[0].prog, sim.WithSeed(9), sim.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	res, err := size.Census(g, 9, sim.WithTranscript(tw))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(native, buf.Bytes()) {
		t.Errorf("resume-suite census transcript differs from size.Census (%d vs %d bytes)", len(native), buf.Len())
	}
	if want := int64(2*g.M() + 2*(n-1)); res.N != n || res.Metrics.Messages != want {
		t.Errorf("census counted %d with %d messages, want %d with %d", res.N, res.Metrics.Messages, n, want)
	}
}

// FuzzResumeEquivalence lets the fuzzer explore the checkpoint/resume tuple
// space: any input whose stitched transcript diverges from the uninterrupted
// run is a restore bug.
func FuzzResumeEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(18), int64(11), uint8(2), uint8(0))
	f.Add(uint8(1), uint8(7), int64(3), uint8(1), uint8(2))
	// census under the delay+dup storm: the checkpoint must carry in-flight
	// delayed and duplicated messages through the resume.
	f.Add(uint8(0), uint8(14), int64(23), uint8(3), uint8(1))
	// Chaos v2: a partition healing across a checkpoint capture (cutSel 4
	// lands inside the 3-9 window), and a restart landing inside a jam
	// window — the resumed incarnation must re-derive its fresh RNG stream
	// and the recurring jam schedule from the checkpoint alone.
	f.Add(uint8(0), uint8(18), int64(11), uint8(4), uint8(3))
	f.Add(uint8(1), uint8(10), int64(7), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, protoSel, nSel uint8, seed int64, cutSel, planSel uint8) {
		if seed < 0 {
			t.Skip("negative seeds normalize to themselves")
		}
		proto := resumeProtocols[int(protoSel)%len(resumeProtocols)]
		g, err := graph.ImplicitRing(8+int(nSel)%24, 3)
		if err != nil {
			t.Fatal(err)
		}
		var plan *fault.Plan
		if planStr := resumePlans[int(planSel)%len(resumePlans)]; planStr != "" {
			if plan, err = fault.Parse(planStr); err != nil {
				t.Fatal(err)
			}
		}
		ref, _, _ := runWithTranscript(t, g, proto.prog, sim.WithSeed(1+seed%100), sim.WithFaults(plan), sim.WithMaxRounds(resumeMaxRounds), sim.WithWorkers(1))
		_, rounds := frameOffsets(t, ref)
		last := 0
		for _, r := range rounds {
			last = max(last, r)
		}
		if last < 2 {
			t.Skip("run too short to cut")
		}
		cut := 1 + int(cutSel)%(last-1)
		checkResumeTuple(t, g, proto.prog, 1+seed%100, plan, []int{cut})
	})
}
