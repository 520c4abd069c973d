package obs

// series.go is the per-round time-series collector: one NDJSON row per
// round (or per decimation window) carrying the round's metric deltas,
// awake-node count, and per-shard phase durations. The invariant the tests
// pin down: summing any delta column over a run's rows reproduces the final
// sim.Metrics total exactly, at every decimation factor — windows aggregate
// deltas rather than sampling them, and RunEnd flushes the partial tail.

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/sim"
)

// SeriesHeader is the first NDJSON line of a series stream: the run
// configuration every row joins against. Commands fill it from their
// resolved flags; field order here is the emission order (encoding/json
// preserves struct order), which makes the header golden-able.
type SeriesHeader struct {
	Series  string `json:"series"`  // always "mm-series"
	Version int    `json:"version"` // format version, bumped on row changes
	Algo    string `json:"algo,omitempty"`
	Graph   string `json:"graph,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    int64  `json:"seed"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Every   int    `json:"every"`
	Faults  string `json:"faults,omitempty"`
}

// SeriesFormatVersion is the current row-format version. Version 2 added
// the partitioned_drop/restarted/skewed delta columns.
const SeriesFormatVersion = 2

// seriesRow is one emitted window. run counts RunStarts (multi-stage
// algorithms emit several runs into one stream); round is the last round
// the window covers; rounds is how many executed-or-skipped rounds the
// window aggregates (> every after a fast-forward). The metric fields are
// window deltas of the like-named sim.Metrics counters.
type seriesRow struct {
	Run            int     `json:"run"`
	Round          int     `json:"round"`
	Rounds         int     `json:"rounds"`
	Awake          int     `json:"awake"`
	Slot           string  `json:"slot"` // last round's slot resolution
	Messages       int64   `json:"messages"`
	SlotsIdle      int64   `json:"slots_idle"`
	SlotsSuccess   int64   `json:"slots_success"`
	SlotsCollision int64   `json:"slots_collision"`
	SlotsJammed    int64   `json:"slots_jammed"`
	DroppedHalted  int64   `json:"dropped_halted"`
	Crashed        int64   `json:"crashed"`
	DroppedFault   int64   `json:"dropped_fault"`
	Delayed        int64   `json:"delayed"`
	Duplicated     int64   `json:"duplicated"`
	Partitioned    int64   `json:"partitioned_drop"`
	Restarted      int64   `json:"restarted"`
	Skewed         int64   `json:"skewed"`
	StepNs         []int64 `json:"step_ns"`    // per shard, this window
	DeliverNs      []int64 `json:"deliver_ns"` // per shard, this window
	BarrierNs      []int64 `json:"barrier_ns"` // per shard, this window
}

// collector accumulates rounds into windows and streams rows. All methods
// are coordinator-side (RoundEnd/RunStart/RunEnd ordering); the per-shard
// duration arrays are filled by endPhase under the engine's phase-handoff
// ordering and harvested here.
type collector struct {
	bw    *bufio.Writer
	enc   *json.Encoder
	every int
	err   error // first write error; subsequent rows are dropped

	run        int
	prev       sim.Metrics // cumulative snapshot at last emitted row
	pendRounds int         // rounds accumulated in the open window
	lastAwake  int
	lastSlot   sim.SlotState
	lastRound  int
	shards     int
	// Open-window per-shard phase sums, harvested from Obs.phaseNs.
	winNs [int(sim.NumPhases)][]int64
}

func newCollector(w io.Writer, every int) *collector {
	if every < 1 {
		every = 1
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	return &collector{bw: bw, enc: json.NewEncoder(bw), every: every}
}

// writeHeader emits the header line. Called once by the owning Obs before
// the first run.
func (c *collector) writeHeader(h SeriesHeader) {
	h.Series = "mm-series"
	h.Version = SeriesFormatVersion
	h.Every = c.every
	if c.err == nil {
		c.err = c.enc.Encode(h)
	}
}

// runStart opens a new run's accounting. Any window left open by an aborted
// previous flush was already emitted by runEnd.
func (c *collector) runStart(shards int) {
	c.run++
	c.prev = sim.Metrics{}
	c.pendRounds = 0
	c.lastRound = 0
	c.shards = shards
	for p := range c.winNs {
		if cap(c.winNs[p]) < shards {
			c.winNs[p] = make([]int64, shards)
		}
		c.winNs[p] = c.winNs[p][:shards]
		for i := range c.winNs[p] {
			c.winNs[p][i] = 0
		}
	}
}

// roundEnd accrues one executed round (which may cover a fast-forwarded
// stretch) and emits a row when the window is full. phaseNs holds the
// round's per-shard phase durations, already harvested and reset by the
// caller.
func (c *collector) roundEnd(round, awake int, slot sim.SlotState, m *sim.Metrics, phaseNs *[int(sim.NumPhases)][]int64) {
	for p := range c.winNs {
		win := c.winNs[p]
		for i, ns := range phaseNs[p] {
			if i < len(win) {
				win[i] += ns
			}
		}
	}
	c.pendRounds = m.Rounds - c.prev.Rounds
	c.lastAwake = awake
	c.lastSlot = slot
	c.lastRound = round
	if c.pendRounds >= c.every {
		c.flush(m)
	}
}

// flush emits the open window as one row and resets it.
func (c *collector) flush(m *sim.Metrics) {
	delta := *m
	delta.Sub(&c.prev)
	row := seriesRow{
		Run:            c.run,
		Round:          c.lastRound,
		Rounds:         delta.Rounds,
		Awake:          c.lastAwake,
		Slot:           c.lastSlot.String(),
		Messages:       delta.Messages,
		SlotsIdle:      delta.SlotsIdle,
		SlotsSuccess:   delta.SlotsSuccess,
		SlotsCollision: delta.SlotsCollision,
		SlotsJammed:    delta.SlotsJammed,
		DroppedHalted:  delta.DroppedHalted,
		Crashed:        delta.Crashed,
		DroppedFault:   delta.DroppedFault,
		Delayed:        delta.Delayed,
		Duplicated:     delta.Duplicated,
		Partitioned:    delta.PartitionedDrop,
		Restarted:      delta.Restarted,
		Skewed:         delta.Skewed,
		StepNs:         c.winNs[sim.PhaseStep],
		DeliverNs:      c.winNs[sim.PhaseDeliver],
		BarrierNs:      c.winNs[sim.PhaseBarrier],
	}
	if c.err == nil {
		c.err = c.enc.Encode(row)
	}
	c.prev = *m
	c.pendRounds = 0
	for p := range c.winNs {
		for i := range c.winNs[p] {
			c.winNs[p][i] = 0
		}
	}
}

// runEnd flushes the partial tail window, if any round (or any counter
// movement — an aborted round can move fault counters without completing)
// is pending.
func (c *collector) runEnd(m *sim.Metrics) {
	if c.pendRounds > 0 || c.prev != *m {
		c.flush(m)
	}
}

// Flush drains buffered rows to the underlying writer and reports the first
// write error, if any.
func (c *collector) Flush() error {
	if err := c.bw.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}
