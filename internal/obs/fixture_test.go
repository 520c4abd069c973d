package obs

// The committed example trace (testdata/example_trace.json) exists so the
// README can say "load this in Perfetto" and CI can prove the claim
// structurally without a browser. Span timings are wall-clock, so the
// fixture is not byte-deterministic; regenerate with
//
//	go test ./internal/obs -run TestExampleTraceFixture -update-trace-fixture
//
// whenever the trace format changes.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateTraceFixture = flag.Bool("update-trace-fixture", false, "regenerate testdata/example_trace.json")

// exampleTraceBytes returns the fixture, regenerating it first when
// -update-trace-fixture is set: a 64-node ring relay under the standard
// fault plan at 2 workers — small enough to commit,
// busy enough to show all three phase lanes and the fault window.
func exampleTraceBytes(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join("testdata", "example_trace.json")
	if *updateTraceFixture {
		g, plan := testGraphAndPlan(t)
		o := New(Options{Trace: true})
		if _, err := sim.RunStep(g, relayProgram(40),
			sim.WithSeed(7), sim.WithFaults(plan), sim.WithRecorder(o), sim.WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-trace-fixture)", err)
	}
	return data
}
