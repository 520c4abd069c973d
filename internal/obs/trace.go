package obs

// trace.go is the phase tracer: preallocated per-shard span rings filled at
// the engine's phase boundaries and rendered as Chrome trace_event JSON —
// the format about:tracing and https://ui.perfetto.dev load directly. Each
// shard is one "thread" in the viewer, so a step-engine run reads as a
// swimlane per shard with step/deliver/barrier/idle spans and fast-forward
// instants: the coordinator's barrier wait, and the workers' idle time,
// against shard work.
//
// Concurrency: each shard's ring has exactly one writer at a time — the
// goroutine running that shard's slice of the current phase — and writes
// are ordered against the coordinator by the engine's phase gate, so rings
// need no locks. Rendering happens after Run returns, when all writers have
// quiesced.

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sim"
)

// span is one recorded phase execution on one shard. start is nanoseconds
// since the tracer's base instant; dur is the span length in nanoseconds.
type span struct {
	start int64
	dur   int64
	round int32
	phase sim.Phase // or phaseIdle
}

// instant is a zero-duration marker event (fast-forward skips).
type instant struct {
	at       int64
	from, to int32
}

// shardRing is a fixed-capacity ring of spans: when full, the oldest spans
// are overwritten, so a long run keeps its most recent window — the part a
// wedged or slow run's investigator wants.
type shardRing struct {
	spans   []span
	next    int   // next write slot
	written int64 // total spans ever written (written - len = dropped)
}

func (r *shardRing) add(s span) {
	if len(r.spans) == 0 {
		return
	}
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
	}
	r.written++
}

// ordered returns the ring's spans oldest-first.
func (r *shardRing) ordered() []span {
	n := int64(len(r.spans))
	if r.written < n {
		return r.spans[:r.written]
	}
	out := make([]span, 0, n)
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// traceCap is the per-shard span-ring capacity: 32768 spans ≈ 10⁴ rounds
// of step+deliver+barrier per shard, ~0.75 MiB per shard.
const traceCap = 1 << 15

// tracer owns the per-shard rings and the fast-forward instants.
type tracer struct {
	cap      int
	rings    []shardRing // indexed by shard
	instants []instant   // coordinator-only
	runs     int         // RunStart count, for run-boundary instants
}

func newTracer(capacity int) *tracer {
	return &tracer{cap: capacity}
}

// runStart (re)sizes the shard rings. Rings persist across the runs of a
// multi-stage algorithm so the whole composite execution lands in one trace.
func (t *tracer) runStart(shards int) {
	for len(t.rings) < shards {
		t.rings = append(t.rings, shardRing{spans: make([]span, t.cap)})
	}
	t.runs++
}

// record appends a completed span to its shard's ring. Caller guarantees
// shard < len(rings) (the engine never reports a shard it didn't announce).
func (t *tracer) record(p sim.Phase, shard, round int, start, dur int64) {
	t.rings[shard].add(span{start: start, dur: dur, round: int32(round), phase: p})
}

func (t *tracer) fastForward(at int64, from, to int) {
	t.instants = append(t.instants, instant{at: at, from: int32(from), to: int32(to)})
}

// WriteChromeTrace renders the recorded spans as Chrome trace_event JSON
// (JSON-object form, displayTimeUnit ns). Timestamps are microseconds per
// the format; sub-microsecond precision survives as fractions. pid is 1;
// tid is the shard index, with thread_name metadata naming each lane.
func (t *tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	for shard := range t.rings {
		comma()
		fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"shard %d"}}`, shard, shard)
	}
	for shard := range t.rings {
		dropped := t.rings[shard].written - int64(len(t.rings[shard].ordered()))
		if dropped > 0 {
			comma()
			fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":1,"tid":%d,"ts":0,"name":"ring dropped %d oldest spans"}`, shard, dropped)
		}
		for _, s := range t.rings[shard].ordered() {
			comma()
			fmt.Fprintf(bw,
				`{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":"engine","ts":%s,"dur":%s,"args":{"round":%d}}`,
				shard, spanName(s.phase), usec(s.start), usec(s.dur), s.round)
		}
	}
	for _, in := range t.instants {
		comma()
		fmt.Fprintf(bw,
			`{"ph":"i","s":"g","pid":1,"tid":0,"ts":%s,"name":"fast-forward","cat":"engine","args":{"from_round":%d,"to_round":%d}}`,
			usec(in.at), in.from, in.to)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// usec formats nanoseconds as a decimal microsecond value with fractional
// digits (trace_event ts/dur are in microseconds).
func usec(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}
