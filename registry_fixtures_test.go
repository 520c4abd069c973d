package repro

// registry_fixtures_test.go pins every protocol of the differential registry
// to committed bytes: for each (protocol, topology, fault plan) cell, one
// fixture under testdata/registry records the sha256 and length of the MMTR
// transcript stream covering every inner run of the protocol, plus the
// sha256 of its %#v outcome (value or error). Every worker count in
// harnessWorkers must reproduce the fixture, so the fixtures are the oracle
// a protocol or engine rewrite is held to.
//
// Fixtures are written only when missing (the test then fails, asking for
// the new file to be committed); an existing fixture is never rewritten.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// registryPlans are the fault plans every cell runs under.
var registryPlans = []struct{ name, plan string }{
	{"clean", ""},
	{"chaos", "seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5"},
}

// registryCell runs one protocol with every inner run streaming into one
// transcript and renders the cell's fixture.
func registryCell(t *testing.T, proto difftest.Protocol, g graph.Topology, plan *fault.Plan) string {
	t.Helper()
	var buf bytes.Buffer
	tw := sim.NewTranscriptWriter(&buf, false)
	oldT, oldF, oldM := sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds = tw, plan, 2000
	out := capture(proto.Run, g, 1)
	sim.DefaultTranscript, sim.DefaultFaults, sim.DefaultMaxRounds = oldT, oldF, oldM
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("stream sha256:%x len:%d\noutcome sha256:%x\n",
		sha256.Sum256(buf.Bytes()), buf.Len(), sha256.Sum256([]byte(fmt.Sprintf("%#v", out))))
}

func TestRegistryFixtures(t *testing.T) {
	for _, proto := range difftest.Protocols() {
		for _, topo := range equivalenceTopologies {
			for _, p := range registryPlans {
				t.Run(proto.Name+"/"+topo.name+"/"+p.name, func(t *testing.T) {
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
					path := filepath.Join("testdata", "registry", proto.Name, topo.name+"-"+p.name+".golden")
					want, err := os.ReadFile(path)
					missing := errors.Is(err, fs.ErrNotExist)
					if err != nil && !missing {
						t.Fatal(err)
					}
					for _, workers := range harnessWorkers {
						t.Run(fmt.Sprintf("step-w%d", workers), func(t *testing.T) {
							oldW := sim.DefaultWorkers
							sim.DefaultWorkers = workers
							defer func() { sim.DefaultWorkers = oldW }()
							got := registryCell(t, proto, g, plan)
							if missing {
								if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
									t.Fatal(err)
								}
								if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
									t.Fatal(err)
								}
								t.Errorf("wrote missing fixture %s from step-w%d; commit it", path, workers)
								want, missing = []byte(got), false
								return
							}
							if got != string(want) {
								t.Errorf("deviates from %s:\n got:  %s want: %s", path, got, want)
							}
						})
					}
				})
			}
		}
	}
}
