package main

// golden_test.go locks the determinism contract against committed bytes:
// every config below runs through the full command (flags → graph →
// algorithm → -json encoding) and must reproduce its fixture under
// testdata/golden exactly. Worker-count equivalence is the differential
// suite's job; the golden files catch regressions every worker count shares
// — a changed RNG derivation, a reordered delivery, a metrics accounting
// slip.
//
// Regenerate intentionally with:
//
//	go test ./cmd/mmnet -run TestGoldenTranscripts -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden transcript fixtures")

// goldenConfigs pin one representative run per protocol family.
var goldenConfigs = []struct {
	name string
	args []string
}{
	{"count-ring16-step", []string{"-graph", "ring:16", "-algo", "count"}},
	{"sum-ring20-step", []string{"-graph", "ring:20", "-algo", "sum"}},
	{"min-rand-mb-random18-step", []string{"-graph", "random:18,12", "-algo", "min", "-variant", "rand", "-stage", "mb"}},
	{"mst-random24-step", []string{"-graph", "random:24,20", "-algo", "mst"}},
	{"partition-det-ring32-step", []string{"-graph", "ring:32", "-algo", "partition-det"}},
	{"estimate-ring16-step", []string{"-graph", "ring:16", "-algo", "estimate"}},
	{"elect-ring24-step", []string{"-graph", "ring:24", "-algo", "elect"}},
	{"snapshot-random20-step", []string{"-graph", "random:20,14", "-algo", "snapshot"}},
	{"forest-star24-step", []string{"-graph", "star:24", "-algo", "forest"}},
	{"coloring-random26-step", []string{"-graph", "random:26,18", "-algo", "coloring"}},
	{"sync-sum-ring12-step", []string{"-graph", "ring:12", "-algo", "sync-sum"}},
	{"census-jammed-ring48-step", []string{"-graph", "ring:48", "-algo", "census", "-faults", "seed:5;jam:1-20/p0.5"}},
	// Implicit rings and the stored families: the hash-derived weights of
	// the O(1)-memory forms must stay transcript-stable as well.
	{"census-ring64-implicit", []string{"-graph", "ring:64", "-algo", "census"}},
	{"mst-hypercube4-implicit-step", []string{"-graph", "hypercube:4", "-algo", "mst"}},
	{"sum-ws-small-world-step", []string{"-graph", "ws:24,4,0.2", "-algo", "sum"}},
	{"forest-ba-scale-free-step", []string{"-graph", "ba:26,2", "-algo", "forest"}},
	{"count-faulted-ring24-step", []string{"-graph", "ring:24", "-algo", "count", "-faults", "seed:5;dup:*@2-20/p0.2/d2", "-max-rounds", "4000"}},
	// Chaos v2 rules: a partition window the randomized sum survives with
	// legible drift, and a crash-restart the coloring pipeline completes
	// through (the restarted node revives inside one of its internal runs).
	{"sum-rand-mb-partitioned-random18-step", []string{"-graph", "random:18,12", "-algo", "sum", "-variant", "rand", "-stage", "mb", "-faults", "partition:2@3-6", "-max-rounds", "4000"}},
	{"coloring-restart-star24-step", []string{"-graph", "star:24", "-algo", "coloring", "-faults", "crash:7@3;restart:7@8", "-max-rounds", "4000"}},
}

func TestGoldenTranscripts(t *testing.T) {
	for _, tc := range goldenConfigs {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			args := append(append([]string{}, tc.args...), "-json")
			if err := run(args, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("transcript deviates from committed fixture %s:\n got:  %s\n want: %s",
					path, buf.Bytes(), want)
			}
		})
	}
}
