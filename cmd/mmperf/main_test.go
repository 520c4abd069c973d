package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// toySpecs shrinks every workload to a size that runs in milliseconds.
var toySpecs = map[string]string{
	"census-ring":    "ring:2000",
	"coloring-torus": "torus:32x32",
	"paper-random":   "random:64,128",
	"census-chaos":   "ring:2000",
}

func toy(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.spec = toySpecs[name]
	return w
}

// measureBoth runs both children's measurements in this process, as the
// parent would in two child processes, with R = 2 timed ops.
func measureBoth(t *testing.T, w workload, seed int64) *result {
	t.Helper()
	cfg := config{seed: seed, ops: 2}
	u, err := measureUntraced(w, cfg)
	if err != nil {
		t.Fatalf("%s untraced: %v", w.name, err)
	}
	tr, err := measureTraced(w, cfg)
	if err != nil {
		t.Fatalf("%s traced: %v", w.name, err)
	}
	spans := tr.Spans
	r := merge(u, tr)
	if len(spans) == 0 {
		t.Fatalf("%s: the traced child recorded no spans", w.name)
	}
	return r
}

// requireMetrics checks that every metric BENCHMARK.json names is measured
// with the unit it states, and that the summary lines can be built.
func requireMetrics(t *testing.T, r *result) {
	t.Helper()
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append(spec.EndToEnd, spec.PerLayer...) {
		m, ok := r.Metrics[g.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", r.Workload, g.Name)
		} else if m.Unit != g.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", r.Workload, g.Name, m.Unit, g.Unit)
		}
	}
	for _, gated := range [][]benchMetric{spec.EndToEnd, spec.PerLayer} {
		if _, err := summaryLine(r, gated); err != nil {
			t.Error(err)
		}
	}
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := measureBoth(t, toy(t, w.name), 1)
			requireMetrics(t, r)
			if r.Failed != 0 || r.Metrics["error_rate"].Value != 0 {
				t.Errorf("%d of %d ops failed: %v", r.Failed, r.Attempted, r.Errors)
			}
			if r.Ops != 2 || r.Attempted != 1+2+memOps+1+tracedOps {
				t.Errorf("ran %d timed ops and %d in all", r.Ops, r.Attempted)
			}
			if r.Counts["sim.rounds"] == 0 || r.Counts["sim.messages"] == 0 {
				t.Errorf("exact counts %v", r.Counts)
			}
		})
	}
}

// Each traced op's spans obey the identities, and a run that stuck out of
// its call would be caught.
func TestSpanIdentities(t *testing.T) {
	w := toy(t, "census-chaos")
	tr, err := measureTraced(w, config{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Failed != 0 {
		t.Fatalf("traced ops failed: %v", tr.Errors)
	}
	var ops []int
	kinds := map[string]int{}
	for i, s := range tr.Spans {
		if s.Kind == kindOp {
			ops = append(ops, i)
		}
		kinds[s.Kind]++
	}
	if len(ops) != tracedOps || kinds[kindRun] == 0 || kinds[kindCall] == 0 {
		t.Fatalf("spans by kind %v over %d ops", kinds, len(ops))
	}
	// Each traced op holds the census run and the resume run.
	last := tr.Spans[ops[len(ops)-1]:]
	if err := checkIdentities(last); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, s := range last {
		if s.Kind == kindRun {
			runs++
		}
	}
	if runs != 2 {
		t.Errorf("last op has %d sim runs, want 2 (census and resume)", runs)
	}

	bad := append([]span(nil), last...)
	for i := range bad {
		if bad[i].Kind == kindRun {
			bad[i].End += 10 * identityTolerance
			break
		}
	}
	if err := checkIdentities(bad); err == nil {
		t.Error("a run outlasting its call passed the identity check")
	}
}

// An op whose verifier is handed a wrong reference fails, and the run still
// reports every metric.
func TestWrongReferenceCountsAsFailed(t *testing.T) {
	w := toy(t, "census-ring")
	refs := w.refs
	w.refs = func(in *instance) error {
		err := refs(in)
		in.wantN++
		return err
	}
	r := measureBoth(t, w, 1)
	if r.Failed != r.Attempted || r.Metrics["error_rate"].Value != 1 {
		t.Errorf("%d of %d ops failed, error_rate %v; want all", r.Failed, r.Attempted, r.Metrics["error_rate"].Value)
	}
	if len(r.Errors) == 0 || !strings.Contains(r.Errors[0], "want 2001") {
		t.Errorf("errors %v", r.Errors)
	}
	requireMetrics(t, r)
}

// Any seed the benchmark is given must be valid: the chaos plan never
// wedges the census.
func TestChaosSeeds(t *testing.T) {
	w := toy(t, "census-chaos")
	for seed := int64(1); seed <= 5; seed++ {
		in, err := prepare(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.op(in, newTracer())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c["fault.events"] == 0 {
			t.Errorf("seed %d: no fault events", seed)
		}
	}
}

// A structural trace error fails the op it happened in, not every later one.
func TestTraceErrorFailsOneOp(t *testing.T) {
	w := toy(t, "census-ring")
	op, ops := w.op, 0
	w.op = func(in *instance, tr *tracer) (counts, error) {
		if ops++; ops == 2 { // the first traced op, after the warm-up
			tr.fail(errors.New("injected"))
		}
		return op(in, tr)
	}
	r, err := measureTraced(w, config{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 || len(r.Errors) != 1 || r.Errors[0] != "injected" {
		t.Errorf("%d of %d traced ops failed (%v); want only the first", r.Failed, r.Attempted, r.Errors)
	}
}

// p10 agrees with Python's statistics.quantiles(xs, n=10,
// method="inclusive")[0], and stays within the samples however few.
func TestP10(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{5, 1, 4, 2, 3}, 1.4},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1.9},
		{[]float64{1, 1.1, 5, 5, 5}, 1.04},
	} {
		if got := p10(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("p10(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// cuts must agree with Python's statistics.quantiles, which is how the
// spreads of the benchmark's runs are judged.
func TestCutsMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2}, 4, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 10, []float64{1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9}},
		{[]float64{7}, 4, []float64{7, 7, 7}},
	} {
		got := cuts(tc.xs, tc.n)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("cuts(%v, %d) = %v, want %v", tc.xs, tc.n, got, tc.want)
				break
			}
		}
	}
}
