package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/sim"
)

// censusTranscript runs the native census on a ring and returns the raw
// transcript bytes — the in-process generator the CLI tests feed on.
func censusTranscript(t *testing.T, n int, seed int64, opts ...sim.Option) []byte {
	t.Helper()
	g, err := graph.ImplicitRing(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog := globalfunc.P2PStepProgram(globalfunc.Sum, func(graph.NodeID) int64 { return 1 })
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	if _, err := sim.RunStep(g, prog, append([]sim.Option{sim.WithSeed(seed), sim.WithTranscript(tw)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyAndShow(t *testing.T) {
	p := writeTemp(t, "a.mmtr", censusTranscript(t, 12, 5))
	var out bytes.Buffer
	if err := run([]string{"-verify", p}, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Errorf("verify output: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"-show", p}, &out); err != nil {
		t.Fatalf("show: %v", err)
	}
	if !strings.Contains(out.String(), "header: n=12 seed=5") || !strings.Contains(out.String(), "final:") {
		t.Errorf("show output: %q", out.String())
	}
}

func TestVerifyRejectsTruncation(t *testing.T) {
	raw := censusTranscript(t, 10, 2)
	p := writeTemp(t, "trunc.mmtr", raw[:len(raw)-20])
	if err := run([]string{"-verify", p}, io.Discard); err == nil {
		t.Error("truncated transcript verified cleanly")
	}
}

func TestDiffIdenticalAndHeaders(t *testing.T) {
	a := writeTemp(t, "a.mmtr", censusTranscript(t, 12, 5))
	b := writeTemp(t, "b.mmtr", censusTranscript(t, 12, 5, sim.WithWorkers(3)))
	var out bytes.Buffer
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatalf("diff of identical runs: %v (%s)", err, out.String())
	}
	if !strings.Contains(out.String(), "transcripts identical") {
		t.Errorf("diff output: %q", out.String())
	}
	// Different seeds are flagged at the header, before any frame.
	c := writeTemp(t, "c.mmtr", censusTranscript(t, 12, 6))
	out.Reset()
	if err := run([]string{"-diff", a, c}, &out); err == nil {
		t.Error("diff across seeds reported no divergence")
	} else if !strings.Contains(out.String(), "headers differ") {
		t.Errorf("diff output: %q", out.String())
	}
}

// TestDiffPinpointsInjectedDivergence is the acceptance check: flip one
// node's inbox digest in one round frame and -diff must name that exact
// round and node.
func TestDiffPinpointsInjectedDivergence(t *testing.T) {
	raw := censusTranscript(t, 12, 5)
	tr, err := sim.NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	tw.WriteHeader(&h)
	wantRound, wantNode := -1, graph.NodeID(-1)
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			if wantRound == -1 && len(rf.Nodes) > 0 {
				wantRound, wantNode = rf.Round, rf.Nodes[0].Node
				rf.Nodes[0].Digest ^= 0xdeadbeef
			}
			tw.WriteRound(rf)
		}
		if ff != nil {
			tw.WriteFinal(ff)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if wantRound == -1 {
		t.Fatal("no round frame carried inbox digests")
	}
	a := writeTemp(t, "a.mmtr", raw)
	b := writeTemp(t, "b.mmtr", buf.Bytes())
	var out bytes.Buffer
	if err := run([]string{"-diff", a, b}, &out); err == nil {
		t.Fatal("injected divergence not reported")
	}
	if !strings.Contains(out.String(), "diverged at round "+strconv.Itoa(wantRound)) ||
		!strings.Contains(out.String(), "node "+strconv.Itoa(int(wantNode))+" inbox digest") {
		t.Errorf("diff did not pinpoint round %d node %d: %q", wantRound, wantNode, out.String())
	}
}

// TestStitchMatchesUninterrupted drives the file-level stitch: checkpoint a
// run, resume it, stitch the two transcripts, and require byte-identity with
// the uninterrupted run.
func TestStitchMatchesUninterrupted(t *testing.T) {
	g, err := graph.ImplicitRing(14, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog := globalfunc.P2PStepProgram(globalfunc.Sum, func(graph.NodeID) int64 { return 1 })
	ref := censusTranscript(t, 14, 4)

	var cps []*sim.Checkpoint
	spec := &sim.CheckpointSpec{At: []int{6}, Sink: func(cp *sim.Checkpoint) error { cps = append(cps, cp); return nil }}
	if _, err := sim.RunStep(g, prog, sim.WithSeed(4), sim.WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("captured %d checkpoints", len(cps))
	}
	var rbuf bytes.Buffer
	tw := sim.NewTranscriptWriter(&rbuf, false)
	if _, err := sim.Resume(g, prog, cps[0], sim.WithTranscript(tw)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	refP := writeTemp(t, "ref.mmtr", ref)
	resP := writeTemp(t, "res.mmtr", rbuf.Bytes())
	outP := filepath.Join(t.TempDir(), "stitched.mmtr")
	if err := run([]string{"-stitch", outP, "-at", "6", refP, resP}, io.Discard); err != nil {
		t.Fatalf("stitch: %v", err)
	}
	got, err := os.ReadFile(outP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("stitched transcript differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
	}
}

func TestBisectCleanRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-bisect", "-algo", "census", "-graph", "ring:24",
		"-seed", "7", "-workers-a", "1", "-workers-b", "3"}, &out)
	if err != nil {
		t.Fatalf("bisect: %v (%s)", err, out.String())
	}
	if !strings.Contains(out.String(), "states identical") {
		t.Errorf("bisect output: %q", out.String())
	}
}

// TestBisectCountFlagValidation pins that a negative worker count or round
// budget is an error rather than a silent fallback to the default.
func TestBisectCountFlagValidation(t *testing.T) {
	for _, flag := range []string{"-workers-a", "-workers-b", "-max-rounds"} {
		args := []string{"-bisect", "-algo", "census", "-graph", "ring:64", flag, "-3"}
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestFixtureStructurallyValid keeps the committed fixture honest: it must
// verify cleanly and describe the run that generated it (census, ring 16).
func TestFixtureStructurallyValid(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-verify", "testdata/census-ring16.mmtr"}, &out); err != nil {
		t.Fatalf("fixture verify: %v", err)
	}
	out.Reset()
	if err := run([]string{"-show", "testdata/census-ring16.mmtr"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "header: n=16 seed=3") {
		t.Errorf("fixture header: %q", out.String())
	}
}
