package repro

// crossform_test.go is the cross-form half of the differential harness: for
// every topology family that exists in both the implicit O(1)-memory form
// and the materialized *Graph form, the two forms must be indistinguishable
// to every protocol — bit-identical outcomes at several worker counts.
// Together with the registry fixtures (registry_fixtures_test.go) this pins
// the full determinism contract: (spec, protocol, seed) fixes the
// transcript regardless of topology form or parallelism.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// crossFormSpecs lists every implicit-capable family once, at sizes small
// enough to run every protocol quickly but rich enough to exercise
// irregular degrees (path endpoints, grid corners, the btree frontier, the
// star hub).
var crossFormSpecs = []string{
	"ring:20",
	"path:17",
	"grid:4x5",
	"torus:3x4",
	"hypercube:4",
	"star:21",
	"btree:19",
}

// crossFormPair builds both forms of one spec.
func crossFormPair(t *testing.T, spec string) (imp graph.Topology, mat *graph.Graph) {
	t.Helper()
	imp, err := graph.ParseSpec(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := imp.(*graph.Implicit); !ok {
		t.Fatalf("spec %s built %T, want the implicit form", spec, imp)
	}
	mat, err = graph.Materialize(imp)
	if err != nil {
		t.Fatal(err)
	}
	return imp, mat
}

// TestCrossFormEquivalence runs every protocol in the differential registry
// on the implicit and materialized forms of every shared topology at each
// of harnessWorkers (1 and 4 under -short), and requires bit-identical
// outcomes form-for-form at each worker count.
func TestCrossFormEquivalence(t *testing.T) {
	for _, spec := range crossFormSpecs {
		imp, mat := crossFormPair(t, spec)
		for _, proto := range difftest.Protocols() {
			for _, workers := range harnessWorkers {
				if testing.Short() && workers == 3 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/step-w%d", spec, proto.Name, workers), func(t *testing.T) {
					oldW := sim.DefaultWorkers
					sim.DefaultWorkers = workers
					defer func() { sim.DefaultWorkers = oldW }()
					implicit := capture(t, proto.Run, imp, 1)
					materialized := capture(t, proto.Run, mat, 1)
					if !reflect.DeepEqual(implicit, materialized) {
						t.Errorf("forms diverge:\n implicit:     %#v\n materialized: %#v",
							implicit, materialized)
					}
				})
			}
		}
	}
}

// TestCrossFormEquivalenceUnderFaults repeats the cross-form gate under a
// nontrivial fault plan on one representative spec per degree pattern: the
// injector's edge-id and node-id coins must land identically on both forms.
func TestCrossFormEquivalenceUnderFaults(t *testing.T) {
	plan := "seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5;delay:*@2-10/p0.3/d2"
	oldMax := sim.DefaultMaxRounds
	sim.DefaultMaxRounds = 2000
	defer func() { sim.DefaultMaxRounds = oldMax }()
	for _, spec := range []string{"ring:20", "grid:4x5", "star:21"} {
		imp, mat := crossFormPair(t, spec)
		for _, proto := range difftest.Protocols() {
			t.Run(spec+"/"+proto.Name, func(t *testing.T) {
				parsed, err := fault.Parse(plan)
				if err != nil {
					t.Fatal(err)
				}
				oldPlan := sim.DefaultFaults
				sim.DefaultFaults = parsed
				defer func() { sim.DefaultFaults = oldPlan }()
				implicit := capture(t, proto.Run, imp, 1)
				materialized := capture(t, proto.Run, mat, 1)
				if !reflect.DeepEqual(implicit, materialized) {
					t.Errorf("faulted forms diverge:\n implicit:     %#v\n materialized: %#v",
						implicit, materialized)
				}
			})
		}
	}
}
