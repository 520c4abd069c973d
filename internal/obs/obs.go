// Package obs is the observability layer for the simulation engine: a
// phase tracer (Chrome trace_event JSON + pprof labels), a per-round
// time-series collector (NDJSON), and a metrics registry with Prometheus
// text exposition — all hand-rolled on the standard library.
//
// The package sits behind the sim.Recorder seam and honours its two
// contracts: observation never alters transcripts (recorders are write-only
// observers; difftest runs bit-identical with any Obs installed), and the
// off switch is a nil Recorder, which costs the engine one branch per hook
// site and zero allocations.
//
// obs is deliberately OUTSIDE mmlint's detsource scope (see
// internal/analysis/detsource.go): it is wall-clock-timed by nature, and
// nothing it measures can flow back into a transcript. Every time.Now call
// site below carries a //mmlint:nondet annotation documenting that the
// nondeterminism is confined to observability output.
package obs

import (
	"context"
	"io"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// Options configures an Obs. The zero value enables only the metrics
// registry; tracing, series, and pprof labels are opt-in.
type Options struct {
	// Trace enables the phase tracer (per-shard span rings, rendered by
	// WriteTrace).
	Trace bool
	// Series, when non-nil, streams one NDJSON row per round (or per
	// SeriesEvery-round window) to the writer. Close flushes it.
	Series io.Writer
	// SeriesEvery is the decimation factor: emit one aggregated row per
	// this many rounds (1 when zero or less). Sums over rows equal final
	// Metrics totals at every factor.
	SeriesEvery int
	// Header is written as the series stream's first line; the caller
	// fills the run-configuration fields (Series/Version/Every are set
	// here).
	Header SeriesHeader
	// PprofLabels tags each goroutine with its current engine phase via
	// runtime/pprof labels, so CPU profiles break down by phase.
	PprofLabels bool
}

// Obs implements sim.Recorder, fanning engine events out to the tracer,
// collector, and registry. One Obs observes any number of sequential runs
// (multi-stage algorithms issue one RunStart per internal run); it must not
// be shared by concurrent runs.
type Obs struct {
	reg *Registry
	tr  *tracer    // nil when tracing off
	col *collector // nil when series off

	base     time.Time // monotonic origin for all span timestamps
	labels   bool
	baseCtx  context.Context
	labelCtx [int(phaseIdle) + 1]context.Context

	// Per-round, per-shard phase-duration accumulators: written by
	// EndPhase (single writer per shard, ordered by the engine's phase
	// handoff), harvested and reset by RoundEnd (coordinator side).
	phaseNs [int(sim.NumPhases)][]int64

	// Registry instruments. prevReg snapshots the current run's cumulative
	// metrics at the last advance so counters advance by deltas and stay
	// monotone across runs.
	prevReg     sim.Metrics
	runs        *Counter
	rounds      *Counter
	messages    *Counter
	slots       [4]*Counter // idle, success, collision, jammed
	faults      [7]*Counter // crashed, dropped, delayed, duplicated, partitioned, restarted, skewed
	droppedHalt *Counter
	ffRounds    *Counter
	awake       *Gauge
	phaseHist   [int(phaseIdle) + 1]*Histogram
}

// phaseIdle is obs's name for a worker's (shard ≥ 1) PhaseBarrier span. A
// worker waits for its next phase through the coordinator's sequential
// section, every round run inline and the run's exit, so only the
// coordinator's wait, which is on the critical path, is barrier time.
const phaseIdle = sim.NumPhases

// spanKind is the phase a span is booked under: PhaseBarrier from a worker
// is phaseIdle.
func spanKind(p sim.Phase, shard int) sim.Phase {
	if p == sim.PhaseBarrier && shard > 0 {
		return phaseIdle
	}
	return p
}

// spanName is the trace's name for a span kind.
func spanName(p sim.Phase) string {
	if p == phaseIdle {
		return "idle"
	}
	return p.String()
}

// New builds an Obs from opts. If opts.Series is set the header line is
// written immediately.
func New(opts Options) *Obs {
	reg := NewRegistry()
	o := &Obs{
		reg: reg,
		// //mmlint:nondet — wall-clock origin for observability timestamps
		// only; never feeds back into engine execution.
		base:   time.Now(),
		labels: opts.PprofLabels,
	}
	if opts.Trace {
		o.tr = newTracer(traceCap)
	}
	if opts.Series != nil {
		o.col = newCollector(opts.Series, opts.SeriesEvery)
		o.col.writeHeader(opts.Header)
	}
	if o.labels {
		o.baseCtx = context.Background()
		for p := range o.labelCtx {
			o.labelCtx[p] = pprof.WithLabels(o.baseCtx, pprof.Labels("phase", spanName(sim.Phase(p))))
		}
	}

	o.runs = reg.Counter("mm_runs_total", "Simulation runs observed (multi-stage algorithms count each internal run).", "")
	o.rounds = reg.Counter("mm_rounds_total", "Rounds executed, including fast-forwarded rounds.", "")
	o.messages = reg.Counter("mm_messages_total", "Point-to-point messages delivered.", "")
	for i, state := range [...]string{"idle", "success", "collision", "jammed"} {
		o.slots[i] = reg.Counter("mm_slots_total", "Channel slot outcomes by state.", Labels("state", state))
	}
	for i, kind := range [...]string{"crashed", "dropped", "delayed", "duplicated", "partitioned", "restarted", "skewed"} {
		o.faults[i] = reg.Counter("mm_faults_total", "Fault injections by kind.", Labels("kind", kind))
	}
	o.droppedHalt = reg.Counter("mm_dropped_halted_total", "Messages addressed to already-halted nodes.", "")
	o.ffRounds = reg.Counter("mm_fastforward_rounds_total", "Rounds resolved arithmetically by the quiescent fast-forward.", "")
	o.awake = reg.Gauge("mm_awake_nodes", "Nodes awake at the end of the last observed round.", "")
	for p := range o.phaseHist {
		o.phaseHist[p] = reg.Histogram("mm_phase_duration_ns", "Engine phase durations in nanoseconds, per shard-phase execution.", Labels("phase", spanName(sim.Phase(p))))
	}
	return o
}

// Registry returns the registry holding this Obs's instruments, for HTTP
// exposition or additional caller-registered metrics.
func (o *Obs) Registry() *Registry { return o.reg }

// now returns nanoseconds since the Obs's base instant.
//
// //mmlint:nondet — the one clock read on the hot path; its value exists
// only in observability output (spans, histograms, series), never in
// transcripts.
func (o *Obs) now() int64 { return time.Since(o.base).Nanoseconds() }

// RunStart implements sim.Recorder.
func (o *Obs) RunStart(n int, engine sim.Engine, workers, shards int) {
	o.runs.Inc()
	o.prevReg = sim.Metrics{}
	for p := range o.phaseNs {
		if cap(o.phaseNs[p]) < shards {
			o.phaseNs[p] = make([]int64, shards)
		}
		o.phaseNs[p] = o.phaseNs[p][:shards]
		for i := range o.phaseNs[p] {
			o.phaseNs[p][i] = 0
		}
	}
	if o.tr != nil {
		o.tr.runStart(shards)
	}
	if o.col != nil {
		o.col.runStart(shards)
	}
}

// BeginPhase implements sim.Recorder. It only reads the clock and labels
// its own goroutine — no shared state is written, so a worker's barrier
// BeginPhase may overlap the coordinator's RoundEnd harvest.
func (o *Obs) BeginPhase(p sim.Phase, shard int) int64 {
	if o.labels {
		pprof.SetGoroutineLabels(o.labelCtx[spanKind(p, shard)])
	}
	return o.now()
}

// EndPhase implements sim.Recorder. A worker's barrier span is booked as
// idle (phaseIdle): it stays out of the barrier histogram and the per-shard
// sums behind the series' barrier column.
func (o *Obs) EndPhase(p sim.Phase, shard, round int, start int64) {
	dur := o.now() - start
	k := spanKind(p, shard)
	o.phaseHist[k].Observe(dur)
	if ns := o.phaseNs[p]; k == p && shard < len(ns) {
		ns[shard] += dur
	}
	if o.tr != nil {
		o.tr.record(k, shard, round, start, dur)
	}
	if o.labels {
		pprof.SetGoroutineLabels(o.baseCtx)
	}
}

// FastForward implements sim.Recorder.
func (o *Obs) FastForward(fromRound, toRound int) {
	o.ffRounds.Add(int64(toRound - fromRound + 1))
	if o.tr != nil {
		o.tr.fastForward(o.now(), fromRound, toRound)
	}
}

// advance moves the registry counters by what m, the run's cumulative
// metrics, gained since the previous call.
func (o *Obs) advance(m *sim.Metrics) {
	delta := *m
	delta.Sub(&o.prevReg)
	o.prevReg = *m
	o.rounds.Add(int64(delta.Rounds))
	o.messages.Add(delta.Messages)
	o.slots[0].Add(delta.SlotsIdle)
	o.slots[1].Add(delta.SlotsSuccess)
	o.slots[2].Add(delta.SlotsCollision)
	o.slots[3].Add(delta.SlotsJammed)
	o.faults[0].Add(delta.Crashed)
	o.faults[1].Add(delta.DroppedFault)
	o.faults[2].Add(delta.Delayed)
	o.faults[3].Add(delta.Duplicated)
	o.faults[4].Add(delta.PartitionedDrop)
	o.faults[5].Add(delta.Restarted)
	o.faults[6].Add(delta.Skewed)
	o.droppedHalt.Add(delta.DroppedHalted)
}

// RoundEnd implements sim.Recorder.
func (o *Obs) RoundEnd(round, awake int, slot sim.SlotState, m *sim.Metrics) {
	o.advance(m)
	o.awake.Set(int64(awake))
	if o.col != nil {
		o.col.roundEnd(round, awake, slot, m, &o.phaseNs)
	}
	for p := range o.phaseNs {
		for i := range o.phaseNs[p] {
			o.phaseNs[p][i] = 0
		}
	}
}

// RunEnd implements sim.Recorder. It settles registry counters for rounds
// that never reached a RoundEnd (an abort can move counters mid-round) and
// flushes the collector's tail window.
func (o *Obs) RunEnd(m *sim.Metrics) {
	o.advance(m)
	if o.col != nil {
		o.col.runEnd(m)
	}
}

// PhaseSummary digests one phase's duration histogram (count, sum, p50,
// p95, max in nanoseconds) — the breakdown mmnet's phase lines print.
func (o *Obs) PhaseSummary(p sim.Phase) Summary {
	return o.phaseHist[p].Summarize()
}

// IdleSummary digests the workers' waits for their next phase, which
// PhaseSummary(sim.PhaseBarrier) leaves out.
func (o *Obs) IdleSummary() Summary {
	return o.phaseHist[phaseIdle].Summarize()
}

// WriteTrace renders the recorded spans as Chrome trace_event JSON. Call
// after the observed runs finish. Returns nil output error (and writes an
// empty trace) when tracing was not enabled.
func (o *Obs) WriteTrace(w io.Writer) error {
	tr := o.tr
	if tr == nil {
		tr = newTracer(1)
	}
	return tr.WriteChromeTrace(w)
}

// Close flushes the series stream (if any) and reports its first write
// error. The Obs must not observe further runs after Close.
func (o *Obs) Close() error {
	if o.col != nil {
		return o.col.Flush()
	}
	return nil
}

// Obs must satisfy the engine's seam.
var _ sim.Recorder = (*Obs)(nil)
