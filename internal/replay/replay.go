// Package replay is the transcript-diff and state-bisection core behind
// cmd/mmreplay's -diff and -bisect modes, factored out so the differential
// harness can auto-reduce a fuzz-found divergence to the first divergent
// round and state delta instead of dumping two opaque outcomes. Everything
// here is read-only over transcripts and re-runs; nothing feeds back into
// engine execution.
package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/size"
)

// ErrDiverged is returned by Diff and BisectStates when the compared runs
// are not identical; the human-readable reduction went to the writer.
var ErrDiverged = errors.New("transcripts diverge")

func nextFrame(tr *sim.TranscriptReader) (*sim.RoundFrame, *sim.FinalFrame, error) {
	rf, ff, err := tr.Next()
	if err == io.EOF {
		return nil, nil, nil
	}
	return rf, ff, err
}

// Diff reports the first divergence between two transcripts — the exact
// round, the field, and, for inbox digests, the node — to w. It returns
// nil when the transcripts are identical and ErrDiverged when not.
func Diff(w io.Writer, a, b *sim.TranscriptReader) error {
	ha, hb := a.Header(), b.Header()
	if ha.N != hb.N || ha.Seed != hb.Seed || ha.Plan != hb.Plan {
		fmt.Fprintf(w, "headers differ: a(n=%d seed=%d plan=%q) vs b(n=%d seed=%d plan=%q)\n",
			ha.N, ha.Seed, ha.Plan, hb.N, hb.Seed, hb.Plan)
		return ErrDiverged
	}
	rounds := 0
	for {
		ra, fa, err := nextFrame(a)
		if err != nil {
			return err
		}
		rb, fb, err := nextFrame(b)
		if err != nil {
			return err
		}
		switch {
		case ra != nil && rb != nil:
			if field, detail := diffRound(ra, rb); field != "" {
				fmt.Fprintf(w, "diverged at round %d: %s: %s\n", ra.Round, field, detail)
				return ErrDiverged
			}
			rounds++
		case fa != nil && fb != nil:
			if field, detail := diffFinal(fa, fb); field != "" {
				fmt.Fprintf(w, "diverged at final frame: %s: %s\n", field, detail)
				return ErrDiverged
			}
			fmt.Fprintf(w, "transcripts identical: %d round frames, final at round %d\n", rounds, fa.Met.Rounds)
			return nil
		case ra == nil && rb == nil && fa == nil && fb == nil:
			fmt.Fprintf(w, "transcripts identical but truncated: %d round frames, no final frame\n", rounds)
			return nil
		default:
			fmt.Fprintf(w, "diverged after round frame %d: one transcript ends early (a: round=%v final=%v, b: round=%v final=%v)\n",
				rounds, ra != nil, fa != nil, rb != nil, fb != nil)
			return ErrDiverged
		}
	}
}

// DiffBytes diffs two in-memory transcripts and returns the reduction
// report ("" when byte-identical runs are also frame-identical, which they
// always are). Decode errors are folded into the report — this is a
// diagnostic path, already inside a failure.
func DiffBytes(a, b []byte) string {
	ra, err := sim.NewTranscriptReader(bytes.NewReader(a))
	if err != nil {
		return fmt.Sprintf("transcript a unreadable: %v", err)
	}
	rb, err := sim.NewTranscriptReader(bytes.NewReader(b))
	if err != nil {
		return fmt.Sprintf("transcript b unreadable: %v", err)
	}
	var buf bytes.Buffer
	if err := Diff(&buf, ra, rb); err != nil && err != ErrDiverged {
		fmt.Fprintf(&buf, "diff aborted: %v\n", err)
	}
	return buf.String()
}

// diffRound returns the first differing field of two same-position round
// frames ("" if identical).
func diffRound(a, b *sim.RoundFrame) (field, detail string) {
	if a.Round != b.Round {
		return "round", fmt.Sprintf("a=%d b=%d", a.Round, b.Round)
	}
	if a.Slot != b.Slot {
		return "slot", fmt.Sprintf("a=%v b=%v", a.Slot, b.Slot)
	}
	if a.From != b.From {
		return "slot writer", fmt.Sprintf("a=node %d b=node %d", a.From, b.From)
	}
	if a.SlotDigest != b.SlotDigest {
		return "slot payload digest", fmt.Sprintf("a=%016x b=%016x", a.SlotDigest, b.SlotDigest)
	}
	if a.Alive != b.Alive {
		return "alive", fmt.Sprintf("a=%d b=%d", a.Alive, b.Alive)
	}
	if name, av, bv := DiffMetrics(&a.Met, &b.Met); name != "" {
		return "metrics." + name, fmt.Sprintf("a=%d b=%d", av, bv)
	}
	// Inbox digests: walk the sorted node lists in lockstep.
	i, j := 0, 0
	for i < len(a.Nodes) || j < len(b.Nodes) {
		switch {
		case j >= len(b.Nodes) || (i < len(a.Nodes) && a.Nodes[i].Node < b.Nodes[j].Node):
			return fmt.Sprintf("node %d inbox", a.Nodes[i].Node), "delivered in a only"
		case i >= len(a.Nodes) || a.Nodes[i].Node > b.Nodes[j].Node:
			return fmt.Sprintf("node %d inbox", b.Nodes[j].Node), "delivered in b only"
		case a.Nodes[i].Digest != b.Nodes[j].Digest:
			return fmt.Sprintf("node %d inbox digest", a.Nodes[i].Node),
				fmt.Sprintf("a=%016x b=%016x", a.Nodes[i].Digest, b.Nodes[j].Digest)
		default:
			i, j = i+1, j+1
		}
	}
	return "", ""
}

func diffFinal(a, b *sim.FinalFrame) (field, detail string) {
	if name, av, bv := DiffMetrics(&a.Met, &b.Met); name != "" {
		return "metrics." + name, fmt.Sprintf("a=%d b=%d", av, bv)
	}
	if a.Err != b.Err {
		return "error", fmt.Sprintf("a=%q b=%q", a.Err, b.Err)
	}
	if a.ResultsDigest != b.ResultsDigest {
		return "results digest", fmt.Sprintf("a=%016x b=%016x", a.ResultsDigest, b.ResultsDigest)
	}
	if a.N != b.N {
		return "n", fmt.Sprintf("a=%d b=%d", a.N, b.N)
	}
	return "", ""
}

// DiffMetrics names the first differing Metrics field (and both values),
// or "" when equal.
func DiffMetrics(a, b *sim.Metrics) (string, int64, int64) {
	type fieldOf struct {
		name string
		a, b int64
	}
	fields := []fieldOf{
		{"rounds", int64(a.Rounds), int64(b.Rounds)},
		{"messages", a.Messages, b.Messages},
		{"slots_idle", a.SlotsIdle, b.SlotsIdle},
		{"slots_success", a.SlotsSuccess, b.SlotsSuccess},
		{"slots_collision", a.SlotsCollision, b.SlotsCollision},
		{"dropped_halted", a.DroppedHalted, b.DroppedHalted},
		{"crashed", a.Crashed, b.Crashed},
		{"dropped_fault", a.DroppedFault, b.DroppedFault},
		{"delayed", a.Delayed, b.Delayed},
		{"duplicated", a.Duplicated, b.Duplicated},
		{"slots_jammed", a.SlotsJammed, b.SlotsJammed},
		{"partitioned_drop", a.PartitionedDrop, b.PartitionedDrop},
		{"restarted", a.Restarted, b.Restarted},
		{"skewed", a.Skewed, b.Skewed},
	}
	for _, f := range fields {
		if f.a != f.b {
			return f.name, f.a, f.b
		}
	}
	return "", 0, 0
}

// Program resolves the re-runnable native step protocols a checkpoint
// resume or a state bisection can drive.
func Program(algo string) (sim.StepProgram, error) {
	switch algo {
	case "census":
		return globalfunc.P2PStepProgram(globalfunc.Sum, func(graph.NodeID) int64 { return 1 }), nil
	case "estimate":
		return size.GLStepProgram(), nil
	default:
		return nil, fmt.Errorf("resume and bisect support the single-run protocols census|estimate, not %q", algo)
	}
}

// BisectStates binary-searches the first round at which configuration A's
// and configuration B's checkpointed engine states differ. On a healthy
// engine the checkpoints are byte-identical at every round (that is the
// determinism contract); when they are not, the reported round is where
// the divergence entered the state — at or before where it first becomes
// observable in transcripts. The narration goes to w; the error is
// ErrDiverged when a divergent state was found.
func BisectStates(w io.Writer, g graph.Topology, prog sim.StepProgram, seed int64, plan *fault.Plan, maxR, workersA, workersB int) error {
	opts := func(workers int, spec *sim.CheckpointSpec) []sim.Option {
		o := []sim.Option{sim.WithSeed(seed), sim.WithFaults(plan), sim.WithWorkers(workers)}
		if maxR > 0 {
			o = append(o, sim.WithMaxRounds(maxR))
		}
		if spec != nil {
			o = append(o, sim.WithCheckpoints(spec))
		}
		return o
	}

	// Reference run: how many rounds are there to search?
	res, runErr := sim.RunStep(g, prog, opts(workersA, nil)...)
	last := 0
	if runErr != nil {
		fmt.Fprintf(w, "run fails under workers=%d: %v (bisecting to the failure)\n", workersA, runErr)
		probe := &sim.CheckpointSpec{Every: 1, Sink: func(cp *sim.Checkpoint) error { last = cp.Round; return nil }}
		if _, err := sim.RunStep(g, prog, opts(workersA, probe)...); err == nil {
			return errors.New("run failed without checkpoints but succeeded with them — capture is not an observation")
		}
	} else {
		last = res.Metrics.Rounds - 1
	}
	if last < 1 {
		fmt.Fprintf(w, "run completes in %d round(s): nothing to bisect\n", last+1)
		return nil
	}

	stateAt := func(workers, round int) ([]byte, error) {
		var got []byte
		spec := &sim.CheckpointSpec{At: []int{round}, Sink: func(cp *sim.Checkpoint) error {
			b, err := cp.Encode()
			got = b
			return err
		}}
		_, err := sim.RunStep(g, prog, opts(workers, spec)...)
		if got == nil && err != nil {
			return nil, err
		}
		return got, nil
	}

	probes := 0
	lo, hi := 1, last // invariant: states at rounds < lo agree; first divergence ≤ hi if any
	firstBad := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		sa, err := stateAt(workersA, mid)
		if err != nil {
			return fmt.Errorf("workers=%d checkpoint at %d: %w", workersA, mid, err)
		}
		sb, err := stateAt(workersB, mid)
		if err != nil {
			return fmt.Errorf("workers=%d checkpoint at %d: %w", workersB, mid, err)
		}
		probes++
		if string(sa) == string(sb) {
			lo = mid + 1
		} else {
			firstBad, hi = mid, mid-1
		}
	}
	if firstBad == 0 {
		fmt.Fprintf(w, "states identical: workers %d and %d agree at every probed round through %d (%d probes)\n",
			workersA, workersB, last, probes)
		return nil
	}
	fmt.Fprintf(w, "first divergent state at round %d (workers %d vs %d, %d probes)\n", firstBad, workersA, workersB, probes)
	return ErrDiverged
}
