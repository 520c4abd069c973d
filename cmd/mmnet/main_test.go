package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAlgos smoke-tests every -algo on a tiny graph through the full
// command wiring (flag parsing, graph construction, defaults, printing).
func TestRunAlgos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the human output must contain
	}{
		{"partition-det", []string{"-graph", "ring:12", "-algo", "partition-det"}, "deterministic partition"},
		{"partition-rand", []string{"-graph", "ring:12", "-algo", "partition-rand"}, "randomized partition"},
		{"partition-lv", []string{"-graph", "ring:12", "-algo", "partition-lv"}, "las vegas partition"},
		{"mst", []string{"-graph", "random:12,8", "-algo", "mst"}, "kruskal-match=true"},
		{"mst-boruvka", []string{"-graph", "random:12,8", "-algo", "mst-boruvka"}, "boruvka baseline"},
		{"sum", []string{"-graph", "ring:12", "-algo", "sum"}, "multimedia sum"},
		{"min", []string{"-graph", "ring:12", "-algo", "min", "-variant", "rand", "-stage", "mb"}, "multimedia min"},
		{"p2p-sum", []string{"-graph", "ring:12", "-algo", "p2p-sum"}, "point-to-point sum"},
		{"bcast-sum", []string{"-graph", "ring:12", "-algo", "bcast-sum"}, "broadcast-only sum"},
		{"count", []string{"-graph", "ring:12", "-algo", "count"}, "n=12"},
		{"census", []string{"-graph", "ring:12", "-algo", "census"}, "native step census: n=12"},
		{"estimate", []string{"-graph", "ring:12", "-algo", "estimate"}, "randomized size estimate"},
		{"elect", []string{"-graph", "ring:12", "-algo", "elect"}, "leader=11"},
		{"snapshot", []string{"-graph", "ring:12", "-algo", "snapshot"}, "snapshot cut"},
		{"forest", []string{"-graph", "ring:12", "-algo", "forest"}, "counted n=12"},
		{"coloring", []string{"-graph", "ring:12", "-algo", "coloring"}, "MIS verified"},
		{"sync-sum", []string{"-graph", "ring:12", "-algo", "sync-sum"}, "synchronizer-driven sum = 78"},
		{"engine-label", []string{"-graph", "ring:12", "-algo", "mst"}, "engine=step"},
		{"other-graphs", []string{"-graph", "ray:3,3", "-algo", "count"}, "n=10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			out := buf.String()
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
			if !strings.Contains(out, "rounds") {
				t.Errorf("output lacks metrics line:\n%s", out)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "nope"},
		{"-graph", "nope"},
		{"-faults", "nope:1@2"},
		{"-graph", "ring:12", "-faults", "crash:99@1"}, // node outside graph
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunJSON checks the -json output is one well-formed object carrying
// the result and the full metrics encoding.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "ring:12", "-algo", "census", "-faults", "jam:1-", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var obj struct {
		Graph   string         `json:"graph"`
		N       int            `json:"n"`
		Algo    string         `json:"algo"`
		Faults  string         `json:"faults"`
		Result  map[string]any `json:"result"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if obj.Graph != "ring:12" || obj.N != 12 || obj.Algo != "census" {
		t.Errorf("header fields wrong: %+v", obj)
	}
	if obj.Result["n"] != float64(12) {
		t.Errorf("result.n = %v, want 12", obj.Result["n"])
	}
	if obj.Faults != "seed:1;jam:1-" {
		t.Errorf("faults = %q, want the jam rule under the default seed 1", obj.Faults)
	}
	// The census never writes the channel, so every slot of the jammed run
	// is a jammed one and the writer-slot counters stay zero.
	if obj.Metrics["slots_jammed"] == float64(0) || obj.Metrics["slots"] != float64(0) {
		t.Errorf("metrics = %v, want slots_jammed > 0 and slots = 0", obj.Metrics)
	}
	for _, key := range []string{"rounds", "messages", "communication", "crashed", "dropped_fault"} {
		if _, ok := obj.Metrics[key]; !ok {
			t.Errorf("metrics lack %q: %v", key, obj.Metrics)
		}
	}
}

// TestRunFaulted checks a faulted run end to end: a jammed census still
// counts exactly, and the fault line appears in the human output.
func TestRunFaulted(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "ring:32", "-algo", "census",
		"-faults", "jam:1-/p0.5;delay:0@1-/d2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"native step census: n=32", "faults=", "jammed-slots="} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRunCheckpointResume drives the -transcript/-checkpoint/-resume flags
// end to end: the resumed run must report the same answer, and capturing
// checkpoints must not change the transcript.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.mmtr")
	ck := filepath.Join(dir, "ck.mmtr")
	cp := filepath.Join(dir, "cp-%d.mmcp")
	base := []string{"-graph", "ring:48", "-algo", "census", "-seed", "9"}

	var buf bytes.Buffer
	if err := run(append(base, "-transcript", ref), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-transcript", ck, "-checkpoint", cp, "-checkpoint-at", "4,7"), &buf); err != nil {
		t.Fatal(err)
	}
	refB, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refB, ckB) {
		t.Fatal("checkpoint capture changed the transcript")
	}

	buf.Reset()
	if err := run(append(base, "-resume", filepath.Join(dir, "cp-7.mmcp")), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resumed from round 7): n=48") {
		t.Errorf("resume output: %q", buf.String())
	}

	// Gzip transcripts announce themselves in the suffix.
	gz := filepath.Join(dir, "ref.mmtr.gz")
	if err := run(append(base, "-transcript", gz), &buf); err != nil {
		t.Fatal(err)
	}
	gzB, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(gzB, refB) || len(gzB) == 0 {
		t.Error("gzip transcript not compressed")
	}
}

// TestRunCheckpointFlagValidation pins the flag-combination errors.
func TestRunCheckpointFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "ring:16", "-algo", "count", "-transcript", "x.mmtr"},
		{"-graph", "ring:16", "-algo", "census", "-checkpoint-every", "5"},
		{"-graph", "ring:16", "-algo", "census", "-checkpoint", "x.mmcp"},
		{"-graph", "ring:16", "-algo", "census", "-checkpoint", "x.mmcp", "-checkpoint-at", "zero"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCountFlagValidation pins that a negative count, or a zero series
// window, is an error rather than a silent fallback to the default.
func TestRunCountFlagValidation(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "x.mmcp")
	for _, args := range [][]string{
		{"-algo", "census", "-checkpoint", ckpt, "-checkpoint-every", "-2"},
		{"-algo", "census", "-series-every", "0"},
		{"-algo", "census", "-series-every", "-4"},
		{"-algo", "census", "-workers", "-3"},
		{"-algo", "census", "-max-rounds", "-5"},
	} {
		args = append([]string{"-graph", "ring:64"}, args...)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
