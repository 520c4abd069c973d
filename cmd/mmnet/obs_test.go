package main

// obs_test.go is the command-level smoke for the observability flags — the
// same checks CI's obs-smoke job runs: a census on a 10⁴ ring with -trace
// and -series produces a parseable Chrome trace and exactly one series row
// per round, and the series header line matches its golden fixture
// (regenerate with -update, like the transcript goldens); the report's
// phase digest prints a barrier line only for runs that fan out.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestObsSmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	seriesPath := filepath.Join(dir, "series.ndjson")

	var out bytes.Buffer
	args := []string{
		"-graph", "ring:10000", "-algo", "census", "-workers", "1",
		"-trace", tracePath, "-series", seriesPath, "-json",
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}

	// The -json object carries the run configuration the trace and series
	// join against.
	var obj struct {
		Engine  string `json:"engine"`
		Workers int    `json:"workers"`
		Metrics struct {
			Rounds int `json:"rounds"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &obj); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	if obj.Engine == "" {
		t.Error("-json output missing engine")
	}
	if obj.Workers != 1 {
		t.Errorf("-json workers = %d, want 1", obj.Workers)
	}
	if obj.Metrics.Rounds == 0 {
		t.Fatal("-json output reports zero rounds")
	}

	// The trace parses as trace_event JSON with phase spans.
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace has no duration spans")
	}

	// The series has a header plus exactly one row per round at -series-every 1.
	sf, err := os.Open(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	var header string
	rows := 0
	for sc.Scan() {
		if header == "" {
			header = sc.Text()
			if !strings.Contains(header, `"series":"mm-series"`) {
				t.Fatalf("first series line is not the header: %s", header)
			}
			continue
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != obj.Metrics.Rounds {
		t.Errorf("series rows = %d, want rounds = %d", rows, obj.Metrics.Rounds)
	}

	// The header line is format-stable: golden-pinned like the transcripts.
	goldenPath := filepath.Join("testdata", "golden", "series-header.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(header+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(want) != header+"\n" {
		t.Errorf("series header deviates from %s:\n got:  %s\n want: %s", goldenPath, header, want)
	}
}

// TestPhaseLinesBookWorkerWaitsAsIdle checks the report's phase digest: a
// run in which no phase fans out to the worker pool prints no barrier line
// and books the workers' gate waits on the idle line; a run on 4,096 nodes
// fans out and prints a barrier line.
func TestPhaseLinesBookWorkerWaitsAsIdle(t *testing.T) {
	for _, tc := range []struct {
		graph, algo string
		barrier     bool
	}{
		{"random:512,1024", "mst", false},
		{"torus:64x64", "coloring", true},
	} {
		var out bytes.Buffer
		args := []string{"-graph", tc.graph, "-algo", tc.algo, "-workers", "2",
			"-trace", filepath.Join(t.TempDir(), "trace.json")}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s %s: %v", tc.graph, tc.algo, err)
		}
		text := out.String()
		if got := strings.Contains(text, "\nphase barrier "); got != tc.barrier {
			t.Errorf("%s %s: barrier line printed: %v, want %v:\n%s", tc.graph, tc.algo, got, tc.barrier, text)
		}
		if !strings.Contains(text, "\nidle ") {
			t.Errorf("%s %s: no idle line:\n%s", tc.graph, tc.algo, text)
		}
	}
}
