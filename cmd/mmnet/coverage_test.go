package main

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/graph"
)

// TestEveryAlgoHasEquivalenceCoverage is the CI gate of the differential
// harness: every -algo value this command accepts must be claimed by a
// runner in internal/difftest, whose transcripts and outcomes the registry
// fixtures pin and the differential suites compare bit for bit across worker
// counts, topology forms, and fault plans. An algorithm cannot be added to
// the CLI without that coverage.
func TestEveryAlgoHasEquivalenceCoverage(t *testing.T) {
	for _, algo := range algoNames {
		if !difftest.Covers(algo) {
			t.Errorf("-algo %s has no differential-test runner in internal/difftest", algo)
		}
	}
	// And the registry must not claim algos the CLI no longer offers.
	known := make(map[string]bool, len(algoNames))
	for _, a := range algoNames {
		known[a] = true
	}
	for _, p := range difftest.Protocols() {
		for _, a := range p.Algos {
			if !known[a] {
				t.Errorf("difftest runner %s claims unknown -algo %s", p.Name, a)
			}
		}
	}
}

// TestAlgoNamesMatchSwitch: every registered name must actually run (tiny
// graph), so algoNames cannot drift from runAlgo's switch.
func TestAlgoNamesMatchSwitch(t *testing.T) {
	for _, algo := range algoNames {
		args := []string{"-graph", "random", "-n", "14", "-extra", "10", "-algo", algo}
		var buf discard
		if err := run(args, &buf); err != nil {
			t.Errorf("-algo %s: %v", algo, err)
		}
	}
}

// TestEveryGraphNameRuns is the -graph coverage gate: every topology family
// graph.SpecNames advertises must be reachable through the flag, both as a
// bare name sized by -n (n=16 is a power of two, so even hypercube
// resolves) and in at least one spec spelling. A generator that exists in
// internal/graph but cannot be reached from the CLI fails here.
func TestEveryGraphNameRuns(t *testing.T) {
	for _, name := range graph.SpecNames() {
		args := []string{"-graph", name, "-n", "16", "-algo", "census"}
		var buf discard
		if err := run(args, &buf); err != nil {
			t.Errorf("-graph %s: %v", name, err)
		}
	}
	for _, spec := range []string{
		"ring:16", "path:16", "grid:4x4", "torus:4x4", "hypercube:4",
		"star:16", "btree:16", "complete:8", "random:16,8", "ray:3,5",
		"ba:16,2", "ws:16,4,0.1", "mat:ring:16",
	} {
		var buf discard
		if err := run([]string{"-graph", spec, "-algo", "census"}, &buf); err != nil {
			t.Errorf("-graph %s: %v", spec, err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
