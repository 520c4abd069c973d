// Command mmreplay inspects, verifies, diffs, stitches, and bisects the
// binary run transcripts mmnet emits (-transcript) and the checkpoints it
// captures (-checkpoint). It is the debugging loop for the determinism
// contract: when two runs that must be bit-identical are not, -diff
// pinpoints the first divergent (round, node, field), and -bisect drives an
// automatic binary search over checkpointed state to find the first round
// where two configurations' full engine states differ — even before the
// divergence becomes observable in the transcript.
//
// Usage examples:
//
//	mmreplay -show run.mmtr
//	mmreplay -verify run.mmtr
//	mmreplay -diff a.mmtr b.mmtr
//	mmreplay -stitch out.mmtr -at 40 prefix.mmtr resumed.mmtr
//	mmreplay -bisect -algo census -graph ring:64 -seed 9 -workers-a 1 -workers-b 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/replay"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mmreplay", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		show   = fs.Bool("show", false, "print the transcript's header and per-round frames")
		verify = fs.Bool("verify", false, "structurally validate the transcript (crc, frame order, final frame)")
		diff   = fs.Bool("diff", false, "compare two transcripts; report the first divergent (round, node, field)")
		stitch = fs.String("stitch", "", "write a stitched transcript to this path (args: prefix resumed; see -at)")
		at     = fs.Int("at", -1, "stitch cut round: frames ≤ at from the prefix, later frames from the resumed transcript")
		bisect = fs.Bool("bisect", false, "binary-search the first round where two configurations' checkpointed states diverge")

		algo     = fs.String("algo", "census", "bisect: protocol to re-run: census|estimate")
		gname    = fs.String("graph", "ring:64", "bisect: "+graph.SpecHelp())
		seed     = fs.Int64("seed", 1, "bisect: master seed")
		faults   = fs.String("faults", "", "bisect: fault plan DSL")
		maxR     = fs.Int("max-rounds", 0, "bisect: round budget (0 = graph-derived default)")
		workersA = fs.Int("workers-a", 1, "bisect: worker count of configuration A")
		workersB = fs.Int("workers-b", 4, "bisect: worker count of configuration B")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch {
	case *show:
		return withTranscript(fs.Args(), 1, func(trs []*sim.TranscriptReader) error {
			return showTranscript(w, trs[0])
		})
	case *verify:
		return withTranscript(fs.Args(), 1, func(trs []*sim.TranscriptReader) error {
			return verifyTranscript(w, trs[0])
		})
	case *diff:
		return withTranscript(fs.Args(), 2, func(trs []*sim.TranscriptReader) error {
			return replay.Diff(w, trs[0], trs[1])
		})
	case *stitch != "":
		if *at < 0 {
			return errors.New("-stitch requires -at ROUND")
		}
		return withTranscript(fs.Args(), 2, func(trs []*sim.TranscriptReader) error {
			return stitchTranscripts(*stitch, *at, trs[0], trs[1])
		})
	case *bisect:
		if *workersA < 0 || *workersB < 0 || *maxR < 0 {
			return fmt.Errorf("-workers-a %d, -workers-b %d, -max-rounds %d: want 0 (GOMAXPROCS workers, graph-derived budget) or more", *workersA, *workersB, *maxR)
		}
		return bisectStates(w, *algo, *gname, *seed, *faults, *maxR, *workersA, *workersB)
	default:
		fs.Usage()
		return errors.New("pick a mode: -show, -verify, -diff, -stitch, or -bisect")
	}
}

// withTranscript opens exactly want transcript files and runs f on them.
func withTranscript(paths []string, want int, f func([]*sim.TranscriptReader) error) error {
	if len(paths) != want {
		return fmt.Errorf("expected %d transcript file(s), got %d", want, len(paths))
	}
	trs := make([]*sim.TranscriptReader, len(paths))
	for i, p := range paths {
		fh, err := os.Open(p)
		if err != nil {
			return err
		}
		defer fh.Close()
		if trs[i], err = sim.NewTranscriptReader(fh); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	return f(trs)
}

func showTranscript(w io.Writer, tr *sim.TranscriptReader) error {
	h := tr.Header()
	fmt.Fprintf(w, "header: n=%d seed=%d plan=%q label=%q gzip=%v\n", h.N, h.Seed, h.Plan, h.Label, h.Gzip)
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if rf != nil {
			fmt.Fprintf(w, "round %d: slot=%v alive=%d msgs=%d inboxes=%d\n",
				rf.Round, rf.Slot, rf.Alive, rf.Met.Messages, len(rf.Nodes))
		}
		if ff != nil {
			status := "ok"
			if ff.Err != "" {
				status = "err=" + ff.Err
			}
			fmt.Fprintf(w, "final: rounds=%d messages=%d %s results=%016x\n",
				ff.Met.Rounds, ff.Met.Messages, status, ff.ResultsDigest)
		}
	}
}

func verifyTranscript(w io.Writer, tr *sim.TranscriptReader) error {
	rounds, prev := 0, -1
	var final *sim.FinalFrame
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if rf != nil {
			if final != nil {
				return fmt.Errorf("round frame %d after the final frame", rf.Round)
			}
			if rf.Round <= prev {
				return fmt.Errorf("round %d out of order (previous %d)", rf.Round, prev)
			}
			for i := 1; i < len(rf.Nodes); i++ {
				if rf.Nodes[i].Node <= rf.Nodes[i-1].Node {
					return fmt.Errorf("round %d: inbox digests out of node order", rf.Round)
				}
			}
			prev, rounds = rf.Round, rounds+1
		}
		if ff != nil {
			final = ff
		}
	}
	if final == nil {
		return errors.New("transcript is truncated: no final frame")
	}
	fmt.Fprintf(w, "ok: %d round frames, final at round %d, n=%d\n", rounds, final.Met.Rounds, final.N)
	return nil
}

// nextFrame pulls the next frame of a stream, returning io.EOF exhaustion
// as (nil, nil, nil).
func nextFrame(tr *sim.TranscriptReader) (*sim.RoundFrame, *sim.FinalFrame, error) {
	rf, ff, err := tr.Next()
	if err == io.EOF {
		return nil, nil, nil
	}
	return rf, ff, err
}

// stitchTranscripts re-frames the prefix's rounds ≤ at followed by the
// resumed transcript's rounds > at, closing with the resumed final frame —
// the file form of the byte-stitching the resume tests do in memory.
// Re-encoding through the shared writer is canonical, so a stitched file
// byte-compares against an uninterrupted run's transcript.
func stitchTranscripts(path string, at int, prefix, resumed *sim.TranscriptReader) error {
	ha, hb := prefix.Header(), resumed.Header()
	if ha.N != hb.N || ha.Seed != hb.Seed || ha.Plan != hb.Plan {
		return fmt.Errorf("transcripts describe different runs: n=%d/%d seed=%d/%d plan=%q/%q",
			ha.N, hb.N, ha.Seed, hb.Seed, ha.Plan, hb.Plan)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tw := sim.NewTranscriptWriter(f, strings.HasSuffix(path, ".gz"))
	tw.WriteHeader(&ha)
	for {
		rf, _, err := nextFrame(prefix)
		if err != nil {
			return err
		}
		if rf == nil || rf.Round > at {
			break
		}
		tw.WriteRound(rf)
	}
	var final *sim.FinalFrame
	for {
		rf, ff, err := nextFrame(resumed)
		if err != nil {
			return err
		}
		if rf == nil && ff == nil {
			break
		}
		if rf != nil && rf.Round > at {
			tw.WriteRound(rf)
		}
		if ff != nil {
			final = ff
		}
	}
	if final == nil {
		return errors.New("resumed transcript has no final frame")
	}
	tw.WriteFinal(final)
	if err := tw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// bisectStates parses the bisect flags' graph and plan and hands the
// search to the shared core in internal/replay, translating its sentinel
// into this command's historical exit message.
func bisectStates(w io.Writer, algo, gname string, seed int64, faults string, maxR, workersA, workersB int) error {
	prog, err := replay.Program(algo)
	if err != nil {
		return err
	}
	g, err := graph.ParseSpec(gname, seed)
	if err != nil {
		return err
	}
	var plan *fault.Plan
	if faults != "" {
		if plan, err = fault.Parse(faults); err != nil {
			return err
		}
	}
	if err := replay.BisectStates(w, g, prog, seed, plan, maxR, workersA, workersB); err != nil {
		if errors.Is(err, replay.ErrDiverged) {
			return errors.New("states diverge")
		}
		return err
	}
	return nil
}
