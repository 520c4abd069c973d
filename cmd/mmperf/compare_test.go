package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	gated := []benchMetric{
		{Name: "run_s_p10", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
	}
	steady := func(v float64) metric { return metric{Value: v, Unit: "s", N: 20, Spread: 0.02} }
	noisy := func(v float64) metric { return metric{Value: v, Unit: "s", N: 20, Spread: 0.4} }
	for _, tc := range []struct {
		name      string
		base, cur metric
		g         benchMetric
		want      string
	}{
		{"faster", steady(1), steady(0.8), gated[0], verdictBetter},
		{"within bound", steady(1), steady(1.09), gated[0], verdictSame},
		{"slower", steady(1), steady(1.2), gated[0], verdictWorse},
		{"noisy base", noisy(1), steady(1.5), gated[0], verdictUnresolved},
		{"noisy change", steady(1), noisy(0.5), gated[0], verdictUnresolved},
		{"higher is better, dropped", steady(100), steady(80), gated[1], verdictWorse},
		{"higher is better, rose", steady(100), steady(120), gated[1], verdictBetter},
		{"single value", metric{Value: 1, Unit: "s"}, metric{Value: 1.05, Unit: "s"}, gated[0], verdictSame},
		{"set-up doubled, under the floor", noisy(15e-6), noisy(30e-6), gated[2], verdictSame},
		{"set-up 40 ms slower", steady(0.1), steady(0.14), gated[2], verdictWorse},
		{"set-up 5% slower, over the floor", steady(1), steady(1.05), gated[2], verdictSame},
	} {
		if got := verdict(tc.base, tc.cur, tc.g); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	rep := func(runs ...float64) *report {
		r := &report{}
		for i, v := range runs {
			name := []string{"census-ring", "paper-random"}[i]
			r.Workloads = append(r.Workloads, &result{Workload: name, Metrics: map[string]metric{
				"run_s_p10": steady(v), "rate": steady(1 / v), "setup_s": steady(1e-6 * v),
			}})
		}
		return r
	}
	var out bytes.Buffer
	if compareReports(&out, rep(1, 2), rep(0.95, 2.1), gated) {
		t.Errorf("changes within the bounds reported as worse:\n%s", out.String())
	}
	out.Reset()
	if !compareReports(&out, rep(1, 2), rep(1, 2.5), gated) {
		t.Errorf("a 25%% slowdown was not reported as worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "paper-random") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("output does not name the worse pair:\n%s", out.String())
	}
	out.Reset()
	if !compareReports(&out, rep(1, 2), rep(1), gated) {
		t.Errorf("a workload missing from the new report was not reported:\n%s", out.String())
	}
}
