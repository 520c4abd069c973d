package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E5", "E9", "E10", "A2"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output lacks %s:\n%s", id, out)
		}
	}
}

func TestRunOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "E6"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== E6") || !strings.Contains(out, "claim:") {
		t.Errorf("-only E6 output malformed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "E999"},
		{"-faults", "nope:1@2"},
		{"-only", "E6", "-workers", "-3"},
		{"-only", "E6", "-max-rounds", "-5"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunFaultedExperiment runs a cheap experiment under a global jam plan:
// the fault flags must thread through to every internal run.
func TestRunFaultedExperiment(t *testing.T) {
	var buf bytes.Buffer
	// E8's protocols tolerate mild jamming (collision-resolution stages
	// retry); the runs must still complete and print the table.
	if err := run([]string{"-only", "E8", "-faults", "jam:1-/p0.1", "-max-rounds", "20000"}, &buf); err != nil {
		t.Fatalf("faulted E8: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "== E8") {
		t.Errorf("output malformed:\n%s", buf.String())
	}
}

// TestE6HonoursRunSettings checks that E6 runs on the step engine under
// mmexp's settings: -trace records its engine spans, and -max-rounds bounds
// its runs.
func TestE6HonoursRunSettings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e6.json")
	if err := run([]string{"-only", "E6", "-trace", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	steps := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "step" {
			steps++
		}
	}
	if steps == 0 {
		t.Errorf("-only E6 -trace wrote no step span (%d bytes)", len(data))
	}

	err = run([]string{"-only", "E6", "-max-rounds", "5"}, &bytes.Buffer{})
	if !errors.Is(err, sim.ErrMaxRounds) || !strings.Contains(err.Error(), "budget 5") {
		t.Errorf("-only E6 -max-rounds 5: err = %v, want the budget-5 ErrMaxRounds", err)
	}
}
