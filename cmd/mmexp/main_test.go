package main

import (
	"bytes"
	"strings"
	"testing"
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
	if err := run([]string{"-only", "E8", "-jam", "0.1", "-max-rounds", "20000"}, &buf); err != nil {
		t.Fatalf("faulted E8: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "== E8") {
		t.Errorf("output malformed:\n%s", buf.String())
	}
}
