package partition

// a4_fixtures_test.go pins DeterministicParallelMWOE, the A4 ablation, to
// committed bytes in the style of the root registry fixtures: for each
// (topology, fault plan) cell, one fixture under testdata/a4 records the
// sha256 and length of the run's MMTR transcript stream plus the sha256 of
// its %#v outcome (value or error). The registry has no entry for the
// variant, so these fixtures are its only transcript oracle. A missing
// fixture is written (and the test fails, asking for it to be committed);
// an existing one is never rewritten.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// a4Outcome is a run's observable result: its value or its error string.
type a4Outcome struct {
	Value any
	Err   string
}

func TestParallelMWOEFixtures(t *testing.T) {
	topos := []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		// The pins' ring: WattsStrogatz(n, 2, 0, s) is the legacy Ring(n, s+1).
		{"ring48", func() (*graph.Graph, error) { return graph.WattsStrogatz(48, 2, 0, 1) }},
		{"random33", func() (*graph.Graph, error) { return graph.RandomConnected(33, 66, 10) }},
		{"ray4x4", func() (*graph.Graph, error) { return graph.Ray(4, 4, 9) }},
	}
	plans := []struct{ name, plan string }{
		{"clean", ""},
		{"chaos", "seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5"},
	}
	for _, topo := range topos {
		for _, p := range plans {
			t.Run(topo.name+"/"+p.name, func(t *testing.T) {
				g, err := topo.mk()
				if err != nil {
					t.Fatal(err)
				}
				var plan *fault.Plan
				if p.plan != "" {
					if plan, err = fault.Parse(p.plan); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join("testdata", "a4", topo.name+"-"+p.name+".golden")
				want, err := os.ReadFile(path)
				missing := errors.Is(err, fs.ErrNotExist)
				if err != nil && !missing {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					got := a4Cell(t, g, plan, workers)
					if missing {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						t.Errorf("wrote missing fixture %s; commit it", path)
						want, missing = []byte(got), false
						continue
					}
					if got != string(want) {
						t.Errorf("workers=%d deviates from %s:\n got:  %s want: %s", workers, path, got, want)
					}
				}
			})
		}
	}
}

// a4Cell runs the A4 variant with its transcript captured and renders the
// cell's fixture.
func a4Cell(t *testing.T, g graph.Topology, plan *fault.Plan, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	oldT, oldF, oldM, oldW := sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultWorkers
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultWorkers = tw, plan, 2000, workers
	var out a4Outcome
	f, met, info, err := DeterministicParallelMWOE(g, 1)
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Value = []any{f.Parent, f.ParentEdge, *met, info.Phases}
	}
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultWorkers = oldT, oldF, oldM, oldW
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("stream sha256:%x len:%d\noutcome sha256:%x\n",
		sha256.Sum256(buf.Bytes()), buf.Len(), sha256.Sum256([]byte(fmt.Sprintf("%#v", out))))
}
