package main

// measure.go runs one workload in the current process: untraced (set-up,
// warm-up, timed ops, memory pass) or traced (warm-up, traced ops).

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The run shape. Timed ops run back to back, one in flight at a time, until
// config.seconds have passed and at least config.ops have run.
const (
	workers = 2 // step-engine workers in every run
	// memOps is the number of memory-pass ops; peak_live_mib is the median
	// over them. A collection marks a short-lived transient (census-ring:
	// 40.5 against 35.9 MiB) in some ops and not in others, so the max would
	// read it in whichever runs happened to catch it once.
	memOps    = 3
	tracedOps = 3
)

type config struct {
	seed    int64
	seconds float64
	ops     int
}

// metric is one named measurement. When it summarizes N samples, one per
// op in run order, Quartiles holds their first quartile, median, and third
// quartile, and Spread says how far Value moves within the run: Value
// recomputed on each quarter of the samples, the interquartile range of
// those four as a share of Value. Interference on a shared host comes in
// stretches of seconds to minutes; Spread sees the part of it that falls
// within one run.
type metric struct {
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	N         int       `json:"n,omitempty"`
	Quartiles []float64 `json:"quartiles,omitempty"`
	Spread    float64   `json:"spread,omitempty"`
}

// summarize reports stat(xs) with the samples' quartiles and its spread.
func summarize(unit string, xs []float64, stat func([]float64) float64) metric {
	v := stat(xs)
	m := metric{Value: v, Unit: unit, N: len(xs), Quartiles: cuts(xs, 4)}
	if k := min(4, len(xs)); k > 1 && v != 0 {
		part := make([]float64, k)
		for i := range part {
			part[i] = stat(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		}
		q := cuts(part, 4)
		m.Spread = (q[2] - q[0]) / v
	}
	return m
}

// p10 is the 10th percentile, interpolated between the two nearest ranks
// (Python's "inclusive" method). Unlike cuts' exclusive method it never
// leaves the range of the samples, which matters for a run's quarters: they
// hold as few as 5 ops.
func p10(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := 0.1 * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// result is one workload's measurements: a child's, or both children's
// merged.
type result struct {
	Workload  string            `json:"workload"`
	Ops       int               `json:"ops"` // timed ops
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Counts    counts            `json:"counts"`
	Metrics   map[string]metric `json:"metrics"`
	// OpWall is the median op wall time in the child that produced the
	// result; the traced child's minus the untraced one's is the tracing
	// overhead.
	OpWall float64 `json:"op_wall_s"`
	Spans  []span  `json:"spans,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]metric{}}
}

// put records the median of xs.
func (r *result) put(name, unit string, xs ...float64) {
	r.Metrics[name] = summarize(unit, xs, median)
}

// putTiming records the median of an op timing as name_p50 and its 10th
// percentile as name_p10. Interference from other tenants of a shared host
// only ever adds time, and comes in bursts of seconds; the fastest tenth of
// a run's ops is the steadiest estimate of the program's own cost, so the
// gate reads p10 (README.md, "Calibration").
func (r *result) putTiming(name, unit string, xs []float64) {
	r.Metrics[name+"_p50"] = summarize(unit, xs, median)
	r.Metrics[name+"_p10"] = summarize(unit, xs, p10)
}

// check accounts one attempted op: it fails if it returned an error or if
// its exact counts differ from the first op's.
func (r *result) check(c counts, err error) {
	r.Attempted++
	switch {
	case c == nil:
	case r.Counts == nil:
		r.Counts = c
	case !maps.Equal(c, r.Counts) && err == nil:
		err = fmt.Errorf("exact counts %v differ from the first op's %v", c, r.Counts)
	}
	if err != nil {
		r.Failed++
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

// finish derives the metrics that depend on the whole result.
func (r *result) finish() {
	r.Metrics["error_rate"] = metric{Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "fraction"}
}

// setUp builds the workload's topology and, when it has one, parses and
// compiles its fault plan.
func setUp(w workload, seed int64) (*instance, error) {
	g, err := graph.ParseSpec(w.spec, seed)
	if err != nil {
		return nil, err
	}
	in := &instance{g: g, seed: seed}
	if w.plan != nil {
		if in.faults, err = compilePlan(w, g, seed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func compilePlan(w workload, g graph.Topology, seed int64) (*fault.Plan, error) {
	p, err := fault.Parse(w.plan(g.N(), seed))
	if err != nil {
		return nil, err
	}
	if _, err := fault.Compile(p, g); err != nil {
		return nil, err
	}
	return p, nil
}

// timeSetUp returns the mean seconds one set-up of in's workload spends
// building the topology and compiling the fault plan (0 without one).
func timeSetUp(w workload, in *instance) (build, compile float64, err error) {
	build, err = meanTime(func() error {
		_, err := graph.ParseSpec(w.spec, in.seed)
		return err
	})
	if err != nil || w.plan == nil {
		return build, 0, err
	}
	compile, err = meanTime(func() error {
		_, err := compilePlan(w, in.g, in.seed)
		return err
	})
	return build, compile, err
}

// setUpBatch is the least time a batch of set-ups is timed over. An implicit
// topology builds in well under a microsecond: timed one at a time, the
// clock reads would cost about as much as the set-up.
const setUpBatch = 10 * time.Millisecond

// meanTime returns the mean seconds fn takes, over a batch of calls that
// lasts at least setUpBatch. Batches double until one is long enough; only
// that one is timed, with one clock read at each end.
func meanTime(fn func() error) (float64, error) {
	for k := 1; ; k *= 2 {
		start := time.Now()
		for range k {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); d >= setUpBatch {
			return d.Seconds() / float64(k), nil
		}
	}
}

// prepare sets the engine up as every run uses it, builds the instance, and
// computes its verification references.
func prepare(w workload, seed int64) (*instance, error) {
	sim.DefaultEngine = sim.EngineStep
	sim.DefaultWorkers = workers
	in, err := setUp(w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := w.refs(in); err != nil {
		return nil, fmt.Errorf("%s: references: %w", w.name, err)
	}
	return in, nil
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // KiB on Linux
}

const mib = 1 << 20

// measureUntraced is the untraced child: set-up, one warm-up op, timed ops,
// and the memory pass. Every op is verified.
func measureUntraced(w workload, cfg config) (*result, error) {
	r := newResult(w.name)
	in, err := prepare(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	op := func() (counts, error) { return w.op(in, t) }
	r.check(oneOp(t, op))

	var walls, cpus, allocs, gcs, build, compile, setup []float64
	calls := map[string][]float64{}
	start := time.Now()
	for len(walls) < cfg.ops || time.Since(start).Seconds() < cfg.seconds {
		// Set-up is sampled once per op, so its samples are spread over the
		// run like the ops' are; the instances it builds are not used. Both
		// it and the op start from a collected heap, so neither runs beside
		// a collection of the other's garbage.
		runtime.GC()
		bt, ct, err := timeSetUp(w, in)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		build, compile, setup = append(build, bt), append(compile, ct), append(setup, bt+ct)
		runtime.GC()

		before := readUsage()
		id, c, err := t.runOp(op)
		after := readUsage()
		r.check(c, err)
		walls = append(walls, time.Duration(t.spans[id].dur()).Seconds())
		cpus = append(cpus, (after.cpu - before.cpu).Seconds())
		allocs = append(allocs, float64(after.totalAlloc-before.totalAlloc)/mib)
		gcs = append(gcs, float64(after.numGC-before.numGC))
		perCall := map[string]float64{}
		for _, s := range t.spans {
			if s.Kind == kindCall {
				perCall[s.Name] += time.Duration(s.dur()).Seconds()
			}
		}
		for name, v := range perCall {
			calls[name] = append(calls[name], v)
		}
		t.spans = t.spans[:0]
	}
	r.Ops = len(walls)
	r.put("setup_s", "s", setup...)
	r.put("graph.build_s", "s", build...)
	if w.plan != nil {
		r.put("fault.compile_s", "s", compile...)
	}
	r.putTiming("run_s", "s", walls)
	r.putTiming("cpu_s", "s", cpus)
	r.put("runtime.alloc_mib_per_op", "MiB", allocs...)
	r.put("runtime.gc_cycles_per_op", "count", gcs...)
	for name, xs := range calls {
		r.put(name+"_s", "s", xs...)
	}
	r.OpWall = r.Metrics["run_s_p50"].Value
	r.Metrics["runtime.parallelism"] = metric{Value: r.Metrics["cpu_s_p50"].Value / r.OpWall, Unit: "ratio"}

	var peaks []float64
	for range memOps {
		runtime.GC()
		var c counts
		peak := peakLive(func() { c, err = oneOp(t, op) })
		r.check(c, err)
		peaks = append(peaks, float64(peak)/mib)
	}
	r.put("peak_live_mib", "MiB", peaks...)
	r.Metrics["runtime.peak_rss_mib"] = metric{Value: maxRSSMiB(), Unit: "MiB"}

	for name, v := range r.Counts {
		switch {
		case name == "resolve.slots_success":
			ok, bad := float64(v), float64(r.Counts["resolve.slots_collision"])
			r.Metrics["resolve.slot_success_ratio"] = metric{Value: ok / (ok + bad), Unit: "ratio"}
		case strings.HasSuffix(name, "_bytes"):
			r.Metrics[name] = metric{Value: float64(v), Unit: "bytes"}
		default:
			r.Metrics[name] = metric{Value: float64(v), Unit: "count"}
		}
	}
	r.finish()
	return r, nil
}

// oneOp runs an op whose spans are not kept.
func oneOp(t *tracer, op func() (counts, error)) (counts, error) {
	_, c, err := t.runOp(op)
	t.spans = t.spans[:0]
	return c, err
}

// memGCPercent is the GOGC of the memory pass: the collector runs every
// time the heap grows by 5%, so the largest live heap any collection marks
// is within about 5% of the true peak, whatever the op's timing.
const memGCPercent = 5

// peakLive runs fn with frequent collections and returns the largest live
// heap a collection marked while it ran. The collections slow fn down,
// which is why the memory pass is not timed.
func peakLive(fn func()) uint64 {
	prev := debug.SetGCPercent(memGCPercent)
	defer debug.SetGCPercent(prev)
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	return <-done
}

// opLayers is one traced op's spans, folded.
type opLayers struct {
	wall                               float64
	self                               map[string]float64 // call name → self time
	runs, rounds, ff                   int
	awake                              int64
	step, deliver, barrier, engineSelf float64
	busy                               []int64 // per shard step+deliver
}

func foldOp(spans []span) opLayers {
	kids := childTime(spans, spans[0].ID)
	l := opLayers{wall: time.Duration(spans[0].dur()).Seconds(), self: map[string]float64{}}
	sec := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kindCall:
			l.self[s.Name] += sec(selfTime(s, kids[i]))
		case kindRun:
			l.runs++
			l.rounds += s.Run.Rounds
			l.ff += s.Run.FF
			l.awake += s.Run.Awake
			l.barrier += sec(s.Run.Barrier)
			l.engineSelf += sec(selfTime(s, 0))
			for sh := range s.Run.Step {
				l.step += sec(s.Run.Step[sh])
				l.deliver += sec(s.Run.Deliver[sh])
				for len(l.busy) <= sh {
					l.busy = append(l.busy, 0)
				}
				l.busy[sh] += s.Run.Step[sh] + s.Run.Deliver[sh]
			}
		}
	}
	return l
}

// skew is the busiest shard's time over the mean shard's.
func skew(busy []int64) float64 {
	var sum, top int64
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	if sum == 0 {
		return 1
	}
	return float64(top) * float64(len(busy)) / float64(sum)
}

// measureTraced is the traced child: one untraced warm-up op, then traced
// ops with the tracer installed as the process-default sim.Recorder. Each
// traced op's spans must satisfy the span identities.
func measureTraced(w workload, cfg config) (*result, error) {
	r := newResult(w.name)
	in, err := prepare(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	op := func() (counts, error) { return w.op(in, t) }
	r.check(oneOp(t, op))

	prev := sim.DefaultRecorder
	sim.DefaultRecorder = t
	defer func() { sim.DefaultRecorder = prev }()
	var (
		walls, runs, rounds, ff, awake []float64
		step, deliver, barrier, idle   []float64
		engineSelf, skews              []float64
		selfs                          = map[string][]float64{}
	)
	for range tracedOps {
		runtime.GC()
		first := len(t.spans)
		_, c, err := t.runOp(op)
		idleNS := t.takeIdle()
		if err == nil {
			err = t.err
		}
		t.err = nil // each op is judged on its own spans
		if err == nil {
			err = checkIdentities(t.spans[first:])
		}
		r.check(c, err)
		l := foldOp(t.spans[first:])
		walls = append(walls, l.wall)
		runs = append(runs, float64(l.runs))
		rounds = append(rounds, float64(l.rounds))
		ff = append(ff, float64(l.ff))
		awake = append(awake, float64(l.awake)/float64(max(l.rounds, 1)))
		step, deliver = append(step, l.step), append(deliver, l.deliver)
		barrier = append(barrier, l.barrier)
		idle = append(idle, time.Duration(idleNS).Seconds())
		engineSelf = append(engineSelf, l.engineSelf)
		skews = append(skews, skew(l.busy))
		for name, v := range l.self {
			selfs[name] = append(selfs[name], v)
		}
	}
	r.Spans = t.spans
	r.OpWall = median(walls)
	r.put("sim.runs", "count", runs...)
	r.put("sim.rounds_executed", "count", rounds...)
	r.put("sim.ff_rounds", "count", ff...)
	r.put("sim.awake_per_round", "count", awake...)
	r.put("sim.step_s", "s", step...)
	r.put("sim.deliver_s", "s", deliver...)
	r.put("sim.barrier_wait_s", "s", barrier...)
	r.put("sim.worker_idle_s", "s", idle...)
	r.put("sim.engine_self_s", "s", engineSelf...)
	r.put("sim.shard_skew", "ratio", skews...)
	for name, xs := range selfs {
		if !strings.HasPrefix(name, "sim.") {
			r.put(name+"_self_s", "s", xs...)
		}
	}
	r.finish()
	return r, nil
}

// merge folds the traced child's result into the untraced one's. Observation
// must not change a run, so the two children's exact counts must agree;
// if they do not, every traced op counts as failed.
func merge(u, tr *result) *result {
	for name, m := range tr.Metrics {
		if name != "error_rate" {
			u.Metrics[name] = m
		}
	}
	u.Attempted += tr.Attempted
	u.Failed += tr.Failed
	u.Errors = append(u.Errors, tr.Errors...)
	if tr.Counts != nil && u.Counts != nil && !maps.Equal(tr.Counts, u.Counts) {
		u.Failed += tr.Attempted - tr.Failed
		u.Errors = append(u.Errors, fmt.Sprintf("traced counts %v differ from untraced %v", tr.Counts, u.Counts))
	}
	u.Spans = tr.Spans
	u.Metrics["obs.trace_overhead_s"] = metric{Value: tr.OpWall - u.OpWall, Unit: "s"}
	u.finish()
	return u
}

// cuts returns the n-1 points that cut xs into n groups of equal
// probability, computed as Python's statistics.quantiles(xs, n=n) computes
// them (its default, "exclusive" method), which is how the spread of the
// benchmark's runs is judged. A single sample is every cut point.
func cuts(xs []float64, n int) []float64 {
	s := slices.Sorted(slices.Values(xs))
	out := make([]float64, n-1)
	for i := 1; i < n; i++ {
		if len(s) == 1 {
			out[i-1] = s[0]
			continue
		}
		m := i * (len(s) + 1)
		j := min(max(m/n, 1), len(s)-1)
		delta := float64(m - j*n)
		out[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return out
}

func median(xs []float64) float64 { return cuts(xs, 2)[0] }
