package obs

// The package's two contracts, tested from outside the engine:
//
//   - Exactness: summing any delta column of the NDJSON series over a run
//     reproduces the final sim.Metrics total bit-for-bit at workers 1, 3
//     and 4, at every decimation factor — even under a fault plan that
//     exercises every counter (crash, drop, delay, dup, jam).
//   - Transparency: a run observed by an Obs produces exactly the results
//     and metrics of the same run unobserved.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// relayProgram is a 64-node-ring workload touching every metric: each node
// relays to its successor every round, a rotating pair contends for the
// channel (success when they coincide, collision otherwise), and the fault
// plan below crashes node 3, jams a window, and drops/delays/duplicates
// probabilistically.
func relayProgram(rounds int) sim.StepProgram {
	return func(c *sim.StepCtx) sim.Machine { return &relayNode{c: c, rounds: rounds} }
}

// relayNode is one node of relayProgram; its result sums what it heard.
type relayNode struct {
	c      *sim.StepCtx
	rounds int
	sum    int
}

func (m *relayNode) Step(in sim.Input) bool {
	for _, msg := range in.Msgs {
		m.sum += msg.Payload.(int)
	}
	if in.Slot.State == sim.SlotSuccess {
		m.sum += 1000
	}
	if in.Round == m.rounds {
		return true
	}
	n, id, r := m.c.N(), int(m.c.ID()), in.Round+1
	m.c.SendTo(graph.NodeID((id+1)%n), r)
	if id == r%n || id == (3*r)%n {
		m.c.Broadcast(r)
	}
	return false
}

func (m *relayNode) Result() any { return m.sum }

const testPlan = "seed:5;crash:3@8;jam:2-20/p0.4;delay:*@3-30/p0.25/d2;dup:*@5-25/p0.2/d3;drop:*@6-18/p0.1"

var workerConfigs = []struct {
	name string
	opts []sim.Option
}{
	{"step-w1", []sim.Option{sim.WithWorkers(1)}},
	{"step-w3", []sim.Option{sim.WithWorkers(3)}},
	{"step-w4", []sim.Option{sim.WithWorkers(4)}},
}

func testGraphAndPlan(t *testing.T) (graph.Topology, *fault.Plan) {
	t.Helper()
	g, err := graph.ImplicitRing(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(testPlan)
	if err != nil {
		t.Fatal(err)
	}
	return g, plan
}

// metricsAsMap flattens the final metrics through their JSON form, dropping
// the derived totals that are not per-round deltas.
func metricsAsMap(t *testing.T, m sim.Metrics) map[string]int64 {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]int64
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "slots")
	delete(fields, "communication")
	return fields
}

// TestSeriesSumsMatchMetricsUnderFaults is the exactness contract: per-row
// deltas sum to the final totals for every metric, worker count, and
// decimation factor, under a plan exercising every fault counter.
func TestSeriesSumsMatchMetricsUnderFaults(t *testing.T) {
	g, plan := testGraphAndPlan(t)
	prog := relayProgram(40)

	// Unobserved baseline: the transparency reference.
	base, err := sim.RunStep(g, prog, sim.WithSeed(7), sim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	// The plan must actually exercise every counter or the test is vacuous.
	//mmlint:commutative independent per-counter vacuity checks
	for name, v := range map[string]int64{
		"Crashed": base.Metrics.Crashed, "DroppedFault": base.Metrics.DroppedFault,
		"Delayed": base.Metrics.Delayed, "Duplicated": base.Metrics.Duplicated,
		"SlotsJammed": base.Metrics.SlotsJammed, "DroppedHalted": base.Metrics.DroppedHalted,
		"SlotsCollision": base.Metrics.SlotsCollision, "SlotsSuccess": base.Metrics.SlotsSuccess,
	} {
		if v == 0 {
			t.Fatalf("fault plan left %s at zero; broaden the plan", name)
		}
	}

	for _, ec := range workerConfigs {
		for _, every := range []int{1, 7, 1000} {
			t.Run(fmt.Sprintf("%s/every=%d", ec.name, every), func(t *testing.T) {
				var buf bytes.Buffer
				o := New(Options{Series: &buf, SeriesEvery: every, Trace: true, PprofLabels: true})
				opts := append([]sim.Option{sim.WithSeed(7), sim.WithFaults(plan), sim.WithRecorder(o)}, ec.opts...)
				res, err := sim.RunStep(g, prog, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}

				// Transparency: observed == unobserved, bit for bit.
				if res.Metrics != base.Metrics {
					t.Errorf("metrics changed under observation:\n base: %+v\n got:  %+v", base.Metrics, res.Metrics)
				}
				if !reflect.DeepEqual(res.Results, base.Results) {
					t.Errorf("results changed under observation")
				}

				// Exactness: sum every delta column, compare to the totals.
				want := metricsAsMap(t, res.Metrics)
				got := make(map[string]int64, len(want))
				rows := 0
				sc := bufio.NewScanner(&buf)
				for sc.Scan() {
					var row map[string]any
					if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
						t.Fatalf("line %d: %v", rows, err)
					}
					if rows == 0 {
						if row["series"] != "mm-series" {
							t.Fatalf("first line is not the header: %s", sc.Text())
						}
						rows++
						continue
					}
					//mmlint:commutative summing independent columns
					for key := range want {
						v, ok := row[key].(float64)
						if !ok {
							t.Fatalf("row %d: field %q missing or non-numeric (%T)", rows, key, row[key])
						}
						got[key] += int64(v)
					}
					rows++
				}
				if err := sc.Err(); err != nil {
					t.Fatal(err)
				}
				if rows < 2 {
					t.Fatalf("series emitted %d lines, want header + >=1 row", rows)
				}
				if every == 1 && rows-1 != res.Metrics.Rounds {
					t.Errorf("every=1 emitted %d rows, want one per round = %d", rows-1, res.Metrics.Rounds)
				}
				//mmlint:commutative independent per-column comparisons
				for key, w := range want {
					if got[key] != w {
						t.Errorf("sum(%s) = %d over %d rows, want %d", key, got[key], rows-1, w)
					}
				}
			})
		}
	}
}

// TestSeriesHeader pins the header line: first line of the stream, stable
// field order, caller-provided configuration round-tripped.
func TestSeriesHeader(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{
		Series:      &buf,
		SeriesEvery: 3,
		Header: SeriesHeader{
			Algo: "census", Graph: "ring:64", N: 64, Seed: 7,
			Engine: "step", Workers: 4, Faults: testPlan,
		},
	})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(&buf).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := `{"series":"mm-series","version":2,"algo":"census","graph":"ring:64","n":64,"seed":7,"engine":"step","workers":4,"every":3,"faults":"` + testPlan + `"}` + "\n"
	if line != want {
		t.Errorf("header line:\n got:  %s want: %s", line, want)
	}
}

// chromeTrace is the subset of the trace_event JSON object form the tests
// (and CI's structural validation) check.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// validateChromeTrace structurally checks a rendered trace: parseable JSON,
// the object form Perfetto loads, thread metadata, and phase spans with
// sane fields. Returns the count of duration spans per phase name.
func validateChromeTrace(t *testing.T, r io.Reader, wantShards int) map[string]int {
	t.Helper()
	var tr chromeTrace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", tr.DisplayTimeUnit)
	}
	phases := map[string]int{}
	threads := map[int]bool{}
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("event %d: metadata %q", i, ev.Name)
			}
			threads[ev.Tid] = true
		case "X":
			phases[ev.Name]++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %d: negative ts/dur", i)
			}
			if _, ok := ev.Args["round"]; !ok {
				t.Errorf("event %d: span without round arg", i)
			}
			if ev.Name != "step" && ev.Name != "deliver" && ev.Name != "barrier" && ev.Name != "idle" {
				t.Errorf("event %d: unknown span name %q", i, ev.Name)
			}
		case "i":
		default:
			t.Errorf("event %d: unexpected ph %q", i, ev.Ph)
		}
	}
	if len(threads) < wantShards {
		t.Errorf("trace names %d shard lanes, want >= %d", len(threads), wantShards)
	}
	return phases
}

// TestTraceChromeJSON runs the step engine at 4 workers with tracing on, on
// a ring large enough for every round to fan out to the worker pool, and
// validates the rendered trace.
func TestTraceChromeJSON(t *testing.T) {
	_, plan := testGraphAndPlan(t)
	g, err := graph.ImplicitRing(2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Trace: true})
	if _, err := sim.RunStep(g, relayProgram(40),
		sim.WithSeed(7), sim.WithFaults(plan), sim.WithRecorder(o), sim.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	phases := validateChromeTrace(t, &buf, 4)
	for _, want := range []string{"step", "deliver", "barrier", "idle"} {
		if phases[want] == 0 {
			t.Errorf("no %q spans in trace (got %v)", want, phases)
		}
	}
}

// TestWorkerWaitIsIdle checks where a worker's phase wait is booked: as
// barrier time only when the coordinator waits on a fanned-out phase. A
// 64-node ring never fans out, so at 4 workers it has idle time and no
// barrier time; a 2,048-node ring fans out every round.
func TestWorkerWaitIsIdle(t *testing.T) {
	for _, tc := range []struct {
		n       int
		barrier bool
	}{{64, false}, {2048, true}} {
		g, err := graph.ImplicitRing(tc.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := New(Options{})
		if _, err := sim.RunStep(g, relayProgram(20), sim.WithRecorder(o), sim.WithWorkers(4)); err != nil {
			t.Fatal(err)
		}
		if got := o.PhaseSummary(sim.PhaseBarrier).Count > 0; got != tc.barrier {
			t.Errorf("ring:%d: barrier spans %d, want any: %v", tc.n, o.PhaseSummary(sim.PhaseBarrier).Count, tc.barrier)
		}
		if o.IdleSummary().Count == 0 {
			t.Errorf("ring:%d: no idle spans from the 3 workers", tc.n)
		}
	}
}

// TestTraceRingOverflow checks the ring keeps the newest spans and reports
// the drop.
func TestTraceRingOverflow(t *testing.T) {
	tr := newTracer(4)
	tr.runStart(1)
	for i := 0; i < 10; i++ {
		tr.record(sim.PhaseStep, 0, i, int64(i*100), 50)
	}
	spans := tr.rings[0].ordered()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := int32(6 + i); s.round != want {
			t.Errorf("span %d round = %d, want %d (oldest-first, newest kept)", i, s.round, want)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ring dropped 6 oldest spans") {
		t.Errorf("trace does not report the drop:\n%s", buf.String())
	}
}

// TestMetricsHTTP drives a run with -metrics-addr semantics: Serve on :0,
// observe a faulted run, scrape /metrics, and check the exposition carries
// the round, message, slot, and fault counters with the run's exact values.
func TestMetricsHTTP(t *testing.T) {
	g, plan := testGraphAndPlan(t)
	o := New(Options{})
	srv, err := Serve("127.0.0.1:0", o.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := sim.RunStep(g, relayProgram(40),
		sim.WithSeed(7), sim.WithFaults(plan), sim.WithRecorder(o))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	m := res.Metrics
	//mmlint:commutative independent exposition-line presence checks
	for line, want := range map[string]int64{
		"mm_runs_total":                      1,
		"mm_rounds_total":                    int64(m.Rounds),
		"mm_messages_total":                  m.Messages,
		`mm_slots_total{state="idle"}`:       m.SlotsIdle,
		`mm_slots_total{state="success"}`:    m.SlotsSuccess,
		`mm_slots_total{state="collision"}`:  m.SlotsCollision,
		`mm_slots_total{state="jammed"}`:     m.SlotsJammed,
		`mm_faults_total{kind="crashed"}`:    m.Crashed,
		`mm_faults_total{kind="dropped"}`:    m.DroppedFault,
		`mm_faults_total{kind="delayed"}`:    m.Delayed,
		`mm_faults_total{kind="duplicated"}`: m.Duplicated,
		"mm_dropped_halted_total":            m.DroppedHalted,
	} {
		if !strings.Contains(text, fmt.Sprintf("%s %d\n", line, want)) {
			t.Errorf("exposition missing %q = %d:\n%s", line, want, grepFor(text, strings.SplitN(line, "{", 2)[0]))
		}
	}
	for _, family := range []string{"# TYPE mm_rounds_total counter", "# TYPE mm_awake_nodes gauge", "# TYPE mm_phase_duration_ns histogram"} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

func grepFor(text, needle string) string {
	var b strings.Builder
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestHistogram checks the power-of-two bucketing math.
func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d", h.Count())
	}
	if want := int64(1 + 2 + 3 + 100 + 1000 + 1<<20); h.Sum() != want {
		t.Errorf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != 1<<20 {
		t.Errorf("Max = %d", h.Max())
	}
	// p50: the 3rd observation (3) lives in bucket le=4.
	if q := h.Quantile(0.5); q != 4 {
		t.Errorf("p50 = %d, want 4", q)
	}
	// p100 is capped at the exact max, not the bucket bound.
	if q := h.Quantile(1); q != 1<<20 {
		t.Errorf("p100 = %d, want %d", q, int64(1<<20))
	}
	s := h.Summarize()
	if s.Count != 6 || s.Max != 1<<20 || s.P50 != 4 {
		t.Errorf("Summarize = %+v", s)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

// TestRegistryExpositionFormat checks HELP/TYPE dedup and histogram
// rendering (cumulative buckets, +Inf, sum, count, le spliced into labels).
func TestRegistryExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "a counter.", Labels("k", "a")).Add(3)
	reg.Counter("x_total", "a counter.", Labels("k", "b")).Add(4)
	h := reg.Histogram("d_ns", "durations.", Labels("phase", "step"))
	h.Observe(3)
	h.Observe(5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Count(text, "# HELP x_total") != 1 {
		t.Errorf("HELP not deduplicated:\n%s", text)
	}
	for _, want := range []string{
		`x_total{k="a"} 3`,
		`x_total{k="b"} 4`,
		`d_ns_bucket{phase="step",le="4"} 1`,
		`d_ns_bucket{phase="step",le="8"} 2`,
		`d_ns_bucket{phase="step",le="+Inf"} 2`,
		`d_ns_sum{phase="step"} 8`,
		`d_ns_count{phase="step"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestExampleTraceFixture validates the committed example trace — the one
// the README points Perfetto users at — with the same structural checks CI
// runs. Regenerate with -update-trace-fixture.
func TestExampleTraceFixture(t *testing.T) {
	data := exampleTraceBytes(t)
	phases := validateChromeTrace(t, bytes.NewReader(data), 2)
	for _, want := range []string{"step", "deliver", "barrier"} {
		if phases[want] == 0 {
			t.Errorf("fixture has no %q spans", want)
		}
	}
}
