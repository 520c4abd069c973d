package main

// compare.go is -compare: a verdict per (workload, end-to-end metric) pair
// of two reports, judged against BENCHMARK.json's bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// absoluteFloor is, per metric, a move too small to count whatever its
// share of the value. Set-up is a relative bound or 20 ms, whichever is
// larger: implicit topologies build in microseconds, where a share of the
// value is timer noise, not a cost a user would see.
var absoluteFloor = map[string]float64{"setup_s": 0.020}

// verdict judges one metric: same when it moved by no more than its
// absolute floor; else unresolved when either side's spread exceeds the
// bound; else worse or better when the value moved by more than the bound
// in that direction; else same.
func verdict(base, cur metric, g benchMetric) string {
	if math.Abs(cur.Value-base.Value) <= absoluteFloor[g.Name] {
		return verdictSame
	}
	if base.Spread > g.Bound || cur.Spread > g.Bound {
		return verdictUnresolved
	}
	change := (cur.Value - base.Value) / base.Value
	if g.Better == "higher" {
		change = -change
	}
	switch {
	case change > g.Bound:
		return verdictWorse
	case change < -g.Bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareReports prints a verdict for every workload of base and every
// gated metric, and reports whether any pair got worse or went missing.
func compareReports(w io.Writer, base, cur *report, gated []benchMetric) bool {
	curByName := map[string]*result{}
	for _, r := range cur.Workloads {
		curByName[r.Workload] = r
	}
	worse := false
	for _, b := range base.Workloads {
		c := curByName[b.Workload]
		for _, g := range gated {
			bm, okB := b.Metrics[g.Name]
			var cm metric
			okC := false
			if c != nil {
				cm, okC = c.Metrics[g.Name]
			}
			v := verdictMissing
			if okB && okC {
				v = verdict(bm, cm, g)
			}
			worse = worse || v == verdictWorse || v == verdictMissing
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.1f%%  bound %.0f%%  %s\n",
				b.Workload, g.Name, bm.Value, cm.Value, 100*(cm.Value-bm.Value)/bm.Value, 100*g.Bound, v)
		}
	}
	return worse
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, basePath, curPath string, gated []benchMetric) (bool, error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return false, err
	}
	if base.Seed != cur.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d)\n", base.Seed, cur.Seed)
	}
	return compareReports(w, base, cur, gated), nil
}
