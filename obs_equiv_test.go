package repro

// obs_equiv_test.go enforces the recorder transparency contract at the
// difftest level: for every protocol in the differential registry, a run
// observed by a fully-enabled obs.Obs (tracing, series, pprof labels, and
// metrics all on, installed process-wide so inner runs of multi-stage
// algorithms are observed too) must produce the outcome — value or error —
// of the same run unobserved, at each of harnessWorkers.

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestObservedRunsMatchUnobserved(t *testing.T) {
	plans := []string{"", "seed:11;crash:4@5;jam:3-4;dup:*@2-9/p0.2/d2"}
	workerCounts := harnessWorkers
	if testing.Short() {
		// The faulted plan at workers 1 and 4 covers every recorder code
		// path; the full matrix runs in the long suite.
		plans = plans[1:]
		workerCounts = []int{1, 4}
	}

	for _, proto := range difftest.Protocols() {
		for _, workers := range workerCounts {
			for _, planStr := range plans {
				name := fmt.Sprintf("%s/step-w%d/f%q", proto.Name, workers, planStr)
				t.Run(name, func(t *testing.T) {
					g, err := graph.ImplicitRing(24, 3)
					if err != nil {
						t.Fatal(err)
					}
					var plan *fault.Plan
					if planStr != "" {
						if plan, err = fault.Parse(planStr); err != nil {
							t.Fatal(err)
						}
					}

					run := func(rec sim.Recorder) (any, error) {
						oldW, oldF, oldR := sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultRecorder
						sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultRecorder = workers, plan, rec
						defer func() {
							sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultRecorder = oldW, oldF, oldR
						}()
						return proto.Run(g, 5)
					}

					wantVal, wantErr := run(nil)
					o := obs.New(obs.Options{
						Trace: true, PprofLabels: true,
						Series: io.Discard, SeriesEvery: 3,
					})
					gotVal, gotErr := run(o)
					if err := o.Close(); err != nil {
						t.Fatal(err)
					}

					if (wantErr == nil) != (gotErr == nil) ||
						(wantErr != nil && wantErr.Error() != gotErr.Error()) {
						t.Fatalf("error diverges under observation:\n unobserved: %v\n observed:   %v", wantErr, gotErr)
					}
					if !reflect.DeepEqual(wantVal, gotVal) {
						t.Fatalf("outcome diverges under observation:\n unobserved: %#v\n observed:   %#v", wantVal, gotVal)
					}
				})
			}
		}
	}
}
