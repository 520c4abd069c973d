package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs the harness at a tiny size and returns the parsed report.
func runTiny(t *testing.T, extra ...string) (*Report, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	args := append([]string{"-n", "2000", "-out", out}, extra...)
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return &rep, out
}

// TestBenchReportShape runs the harness at a tiny size and checks the JSON
// report: every expected row present (including the multi-worker rows),
// sane values.
func TestBenchReportShape(t *testing.T) {
	rep, _ := runTiny(t)
	want := map[string]bool{
		"relay/step-native":            false,
		"relay/step-native-w4":         false,
		"relay/step-native-w8":         false,
		"scale/census-step":            false,
		"scale/forest+coloring-step":   false,
		"scale/mst-merge-step":         false,
		"mem/ring-implicit":            false,
		"mem/ring-materialized":        false,
		"mem/census-ring-implicit":     false,
		"mem/census-ring-materialized": false,
	}
	for _, row := range rep.Rows {
		if _, ok := want[row.Name]; !ok {
			t.Errorf("unexpected row %q", row.Name)
			continue
		}
		want[row.Name] = true
		if strings.HasPrefix(row.Name, "mem/") {
			// Memory rows carry bytes instead of wall-clock numbers. The
			// implicit form's whole point is a footprint near zero, so only
			// the materialized row must show real per-node weight.
			if row.Nodes <= 0 {
				t.Errorf("row %q has degenerate values: %+v", row.Name, row)
			}
			if row.Name == "mem/ring-materialized" && row.BytesPerNode < 24 {
				t.Errorf("row %q: bytes/node %.2f implausibly small", row.Name, row.BytesPerNode)
			}
			if row.Name == "mem/ring-implicit" && row.Bytes > 1<<20 {
				t.Errorf("row %q: implicit topology cost %d bytes; want O(1)", row.Name, row.Bytes)
			}
			if strings.HasPrefix(row.Name, "mem/census-") && row.BytesPerNode <= 0 {
				// Engine-footprint rows always hold real per-node weight:
				// machines, results, and node arrays exist on any form.
				t.Errorf("row %q: engine footprint %.2f bytes/node implausible", row.Name, row.BytesPerNode)
			}
			continue
		}
		if row.NsPerOp <= 0 || row.NodesPerSec <= 0 || row.Nodes <= 0 {
			t.Errorf("row %q has degenerate values: %+v", row.Name, row)
		}
	}
	//mmlint:commutative independent per-row presence checks
	for name, seen := range want {
		if !seen {
			t.Errorf("row %q missing from report", name)
		}
	}
}

// TestCompareGate exercises the -compare regression gate: identical results
// pass, a doctored much-faster baseline fails, and rows with mismatched
// node counts or no baseline are skipped rather than failed.
func TestCompareGate(t *testing.T) {
	rep, out := runTiny(t)

	// Self-comparison: every row is ~1.00x, no regression.
	var buf bytes.Buffer
	if err := compareReports(&buf, rep, out); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no row regressed") {
		t.Errorf("self-compare output: %s", buf.String())
	}

	// Doctored baseline: pretend the past was 10x faster everywhere.
	doctored := *rep
	doctored.Rows = append([]Row(nil), rep.Rows...)
	for i := range doctored.Rows {
		doctored.Rows[i].NodesPerSec *= 10
	}
	base := filepath.Join(t.TempDir(), "base.json")
	data, err := json.Marshal(&doctored)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := compareReports(&buf, rep, base); err == nil {
		t.Fatalf("10x-faster baseline must fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "nodes/sec") {
		t.Errorf("unexpected gate error: %v", err)
	}

	// Doctored alloc baseline: pretend the past allocated 10x less.
	doctored.Rows = append([]Row(nil), rep.Rows...)
	for i := range doctored.Rows {
		if doctored.Rows[i].AllocsPerOp > 0 {
			doctored.Rows[i].AllocsPerOp /= 10
		}
	}
	if data, err = json.Marshal(&doctored); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := compareReports(&buf, rep, base); err == nil {
		t.Fatalf("10x-leaner alloc baseline must fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("unexpected alloc gate error: %v", err)
	}

	// Doctored memory baseline: pretend the past held 10x fewer bytes/node.
	doctored.Rows = append([]Row(nil), rep.Rows...)
	for i := range doctored.Rows {
		if doctored.Rows[i].BytesPerNode > 0 {
			doctored.Rows[i].BytesPerNode /= 10
		}
	}
	if data, err = json.Marshal(&doctored); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := compareReports(&buf, rep, base); err == nil {
		t.Fatalf("10x-leaner memory baseline must fail the gate:\n%s", buf.String())
	} else if !strings.Contains(err.Error(), "bytes/node") {
		t.Errorf("unexpected memory gate error: %v", err)
	}

	// Mismatched node counts and unknown rows are skipped, not failed.
	doctored.Rows = doctored.Rows[:1]
	doctored.Rows[0].Nodes++
	if data, err = json.Marshal(&doctored); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := compareReports(&buf, rep, base); err != nil {
		t.Fatalf("mismatched-n baseline must be skipped: %v", err)
	}
	if !strings.Contains(buf.String(), "skipped") || !strings.Contains(buf.String(), "NEW") {
		t.Errorf("compare output missing skip/new markers:\n%s", buf.String())
	}

	// A missing baseline file is a hard error.
	if err := compareReports(&buf, rep, filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing baseline must error")
	}
}

// TestCompareGateMissingRowAndZeroAllocBaseline covers the gate's edge
// cases on synthetic reports: a baseline row the current report no longer
// produces fails (lost coverage, not a pass), a zero-alloc baseline still
// gates allocation growth beyond the absolute slack, and sub-slack alloc
// jitter over a tiny baseline passes.
func TestCompareGateMissingRowAndZeroAllocBaseline(t *testing.T) {
	writeBase := func(rows ...Row) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "base.json")
		data, err := json.Marshal(&Report{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	row := func(name string, allocs int64) Row {
		return Row{Name: name, Nodes: 100, NsPerOp: 1000, NodesPerSec: 1e6, AllocsPerOp: allocs}
	}

	// Baseline row absent from the current report fails the gate.
	var buf bytes.Buffer
	cur := &Report{Rows: []Row{row("relay/a", 50)}}
	base := writeBase(row("relay/a", 50), row("relay/gone", 50))
	if err := compareReports(&buf, cur, base); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("dropped baseline row must fail the gate, got %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "MISSING") {
		t.Errorf("compare output missing MISSING marker:\n%s", buf.String())
	}

	// Zero-alloc baseline: growth beyond the slack fails...
	buf.Reset()
	cur = &Report{Rows: []Row{row("relay/a", allocsSlack+1)}}
	base = writeBase(row("relay/a", 0))
	if err := compareReports(&buf, cur, base); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("alloc growth over a zero-alloc baseline must fail the gate, got %v\n%s", err, buf.String())
	}

	// ...but sub-slack growth (zero or tiny baseline) passes.
	buf.Reset()
	cur = &Report{Rows: []Row{row("relay/a", allocsSlack), row("relay/b", 12)}}
	base = writeBase(row("relay/a", 0), row("relay/b", 4))
	if err := compareReports(&buf, cur, base); err != nil {
		t.Errorf("sub-slack alloc jitter must pass the gate: %v\n%s", err, buf.String())
	}

	// A GOMAXPROCS mismatch (baseline from a different machine shape)
	// skips the wall-clock half — a 10x slower row passes — while the
	// machine-independent allocs/op half still gates.
	buf.Reset()
	slow := row("relay/a", 1000)
	slow.NodesPerSec /= 10
	cur = &Report{GOMAXPROCS: 4, Rows: []Row{slow}}
	path := filepath.Join(t.TempDir(), "base.json")
	data, err := json.Marshal(&Report{GOMAXPROCS: 1, Rows: []Row{row("relay/a", 50)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareReports(&buf, cur, path); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("cross-shape compare must still gate allocs/op, got %v\n%s", err, buf.String())
	} else if strings.Contains(err.Error(), "nodes/sec") {
		t.Errorf("cross-shape compare must not gate wall clock: %v", err)
	}
	if !strings.Contains(buf.String(), "not comparable") {
		t.Errorf("cross-shape compare output missing notice:\n%s", buf.String())
	}
}
