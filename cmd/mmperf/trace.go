package main

// trace.go is the benchmark's tracer: spans around each op and each call
// into the program, and — when installed as sim.DefaultRecorder — a span per
// sim run with the engine's phase spans folded into per-shard totals and
// their union. Spans stay in memory; phase spans are never stored one by one
// (a census-ring op emits millions of them).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/sim"
)

// Span kinds.
const (
	kindOp   = "op"
	kindCall = "call"
	kindRun  = "run"
)

// span is one traced interval. Parent is the innermost span open when it
// began (-1 for ops); all spans of one op share Op.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Kind   string    `json:"kind"`
	Name   string    `json:"name"`
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	Run    *runStats `json:"run,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// runStats are one sim run's folded phase spans.
type runStats struct {
	Step    []int64 `json:"step_ns"`    // per shard
	Deliver []int64 `json:"deliver_ns"` // per shard
	// Barrier is the coordinator's (shard 0's) barrier wait, which is on
	// the critical path; the workers' waits are tracer.idle.
	Barrier int64 `json:"barrier_ns"`
	// Union is the time covered by any step, deliver, or coordinator
	// barrier span; the rest of the run is the engine's sequential section.
	Union  int64 `json:"union_ns"`
	Rounds int   `json:"rounds_executed"`
	FF     int   `json:"ff_rounds"`
	Awake  int64 `json:"awake_sum"`
}

type interval struct{ start, end int64 }

// tracer records spans. Ops and calls are always timed; sim runs are
// recorded only while the tracer is installed as sim.DefaultRecorder.
//
// Threading (sim.Recorder's contract): the benchmark goroutine is the
// engine's coordinator, so open spans, RunStart/RoundEnd/RunEnd and the
// per-run state are single-goroutine. EndPhase also runs on worker
// goroutines; entry s of ivals, the current run's Step/Deliver, and idle is
// written only by whoever runs shard s's phase, and the engine's phase gate
// orders those writes before the coordinator reads them.
type tracer struct {
	base  time.Time
	spans []span
	open  []int // stack of open span ids
	op    int   // id of the current op span
	err   error // first structural error

	run     *runStats
	ivals   [][]interval // per shard: this round's busy spans
	scratch []interval
	// idle is the workers' (shards ≥ 1) barrier time, accumulated over the
	// op. A worker's last barrier span ends after RunEnd, so it is read
	// only once the op's calls have returned.
	idle []int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(kind, name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Kind: kind, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		t.fail(fmt.Errorf("span %q closed out of order", t.spans[id].Name))
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// call runs fn inside a call span named after the program function it
// calls.
func (t *tracer) call(name string, fn func() error) error {
	id := t.begin(kindCall, name)
	err := fn()
	t.end(id)
	return err
}

// runOp runs one op inside an op span and returns the span's id.
func (t *tracer) runOp(fn func() (counts, error)) (int, counts, error) {
	t.op = len(t.spans)
	id := t.begin(kindOp, "op")
	c, err := fn()
	t.end(id)
	return id, c, err
}

// RunStart implements sim.Recorder.
func (t *tracer) RunStart(_ int, _ sim.Engine, _, shards int) {
	if t.run != nil {
		t.fail(fmt.Errorf("sim run started inside another"))
	}
	id := t.begin(kindRun, "sim.run")
	t.run = &runStats{Step: make([]int64, shards), Deliver: make([]int64, shards)}
	t.spans[id].Run = t.run
	for len(t.ivals) < shards {
		t.ivals = append(t.ivals, nil)
	}
	for len(t.idle) < shards {
		t.idle = append(t.idle, 0)
	}
}

// BeginPhase implements sim.Recorder.
func (t *tracer) BeginPhase(sim.Phase, int) int64 { return t.now() }

// EndPhase implements sim.Recorder.
func (t *tracer) EndPhase(p sim.Phase, shard, _ int, start int64) {
	end := t.now()
	switch {
	case p == sim.PhaseBarrier && shard > 0:
		t.idle[shard] += end - start
		return
	case p == sim.PhaseStep:
		t.run.Step[shard] += end - start
	case p == sim.PhaseDeliver:
		t.run.Deliver[shard] += end - start
	default:
		t.run.Barrier += end - start
	}
	t.ivals[shard] = append(t.ivals[shard], interval{start, end})
}

// FastForward implements sim.Recorder.
func (t *tracer) FastForward(from, to int) { t.run.FF += to - from + 1 }

// RoundEnd implements sim.Recorder. Every phase span of the round has ended
// by now, so their union is folded here.
func (t *tracer) RoundEnd(_, awake int, _ sim.SlotState, _ *sim.Metrics) {
	t.run.Rounds++
	t.run.Awake += int64(awake)
	t.foldUnion()
}

func (t *tracer) foldUnion() {
	iv := t.scratch[:0]
	for s := range t.run.Step {
		iv = append(iv, t.ivals[s]...)
		t.ivals[s] = t.ivals[s][:0]
	}
	if len(iv) == 0 {
		return
	}
	slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.start > cur.end {
			t.run.Union += cur.end - cur.start
			cur = x
		} else if x.end > cur.end {
			cur.end = x.end
		}
	}
	t.run.Union += cur.end - cur.start
	t.scratch = iv
}

// RunEnd implements sim.Recorder.
func (t *tracer) RunEnd(*sim.Metrics) {
	t.foldUnion()
	t.end(t.open[len(t.open)-1])
	t.run = nil
}

// takeIdle returns and resets the workers' barrier time.
func (t *tracer) takeIdle() int64 {
	var sum int64
	for s := range t.idle {
		sum += t.idle[s]
		t.idle[s] = 0
	}
	return sum
}

// childTime returns the total duration of each span's direct children;
// spans[i] has ID base+i.
func childTime(spans []span, base int) []int64 {
	sum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= base {
			sum[s.Parent-base] += s.dur()
		}
	}
	return sum
}

// selfTime is a span's duration minus its children: for ops and calls the
// direct child spans, for runs the union of phase spans (the engine's
// sequential section, engine_self).
func selfTime(s *span, childSum int64) int64 {
	if s.Run != nil {
		return s.dur() - s.Run.Union
	}
	return s.dur() - childSum
}

// identityTolerance is how far a self time may fall below zero, or a child
// stick out of its parent, before the trace is rejected: clock reads at
// adjacent boundaries are taken nanoseconds apart, not milliseconds.
const identityTolerance = int64(time.Millisecond)

// checkIdentities verifies the op's spans add up: op = Σ calls + op self,
// call = Σ runs + call self, run = phase union + engine self, every self
// time ≥ −1 ms, and every span inside its parent. spans[0] is the op.
func checkIdentities(spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].ID
	kids := childTime(spans, base)
	for i := range spans {
		s := &spans[i]
		if self := selfTime(s, kids[i]); self < -identityTolerance {
			return fmt.Errorf("%s span %q: self time %d ns < 0 (duration %d ns)", s.Kind, s.Name, self, s.dur())
		}
		if s.Parent < 0 {
			continue
		}
		p := &spans[s.Parent-base]
		if s.Start < p.Start-identityTolerance || s.End > p.End+identityTolerance {
			return fmt.Errorf("%s span %q is not inside its parent %q", s.Kind, s.Name, p.Name)
		}
	}
	return nil
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes each workload's op, call, and run spans as
// Chrome trace_event JSON (one process per workload), loadable in Perfetto.
// Runs carry their phase totals and engine self time as args.
func writeChromeTrace(w io.Writer, results []*result) error {
	var events []chromeEvent
	for pid, r := range results {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": r.Workload}})
		for i := range r.Spans {
			s := &r.Spans[i]
			ev := chromeEvent{Name: s.Name, Cat: s.Kind, Ph: "X", Pid: pid, Tid: 1,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: map[string]any{"op": s.Op}}
			if s.Run != nil {
				ev.Args["phases"] = s.Run
				ev.Args["engine_self_ns"] = selfTime(s, 0)
			}
			events = append(events, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
