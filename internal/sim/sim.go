// Package sim implements the synchronous multimedia-network simulator of the
// paper's model (§2): an arbitrary-topology point-to-point message-passing
// network combined with a slotted multiaccess collision channel.
//
// Execution proceeds in lock-step rounds. In every round each node reads the
// messages sent to it in the previous round together with the previous
// slot's resolution, computes, and then sends at most one message per
// incident link and optionally writes the channel slot. A slot resolves to
// Idle (no writers), Success (exactly one writer — its payload is heard by
// every node), or Collision (two or more writers — detected by every node).
//
// # Execution model
//
// RunStep executes one explicit step machine per node (a Machine, built by
// a StepProgram) on a sharded worker pool: nodes are partitioned into
// contiguous shards, inbox/outbox buffers are preallocated per shard and
// reused across rounds, message delivery is double-buffered between a
// compute phase and a delivery phase, and each round costs a single
// fan-out/fan-in barrier. Machines may additionally call StepCtx.Sleep to
// park until a message arrives, so protocols whose activity is a travelling
// wavefront run in time proportional to the work done, not nodes × rounds —
// which is what makes million-node simulations practical.
//
// # Determinism contract
//
// Within a round nodes touch only their own state; each node draws from a
// private RNG derived from the master seed and its node id. A run with a
// given (graph, program, seed) therefore yields a bit-identical transcript
// — the same per-round messages, slot resolutions, results, and Metrics —
// regardless of the worker count and worker scheduling. Inboxes are always
// delivered sorted by (sender id, edge id).
//
// # Fault injection
//
// The engine applies an optional fault plan (WithFaults, or the
// process-wide DefaultFaults) at its delivery and slot-resolution choke
// points: crash-stopped nodes, dropped/delayed/duplicated messages, and
// jammed channel slots, as compiled by internal/fault. The determinism
// contract extends to faults — a fixed (graph, program, seed, plan) yields
// a bit-identical transcript at any worker count.
package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Payload is the application-defined content of a point-to-point message or
// a channel slot. The model bounds payloads by O(log n) bits plus one data
// element; programs keep payloads to a constant number of ids and weights.
type Payload any

// Message is a point-to-point message as seen by its recipient.
type Message struct {
	From    graph.NodeID
	EdgeID  int // id of the link it arrived on (index into the graph's edge list)
	Payload Payload
}

// SlotState is the resolution of one multiaccess channel slot.
type SlotState int

// Slot states, in the paper's terminology.
const (
	SlotIdle SlotState = iota + 1
	SlotSuccess
	SlotCollision
)

// String returns the paper's name for the state.
func (s SlotState) String() string {
	switch s {
	case SlotIdle:
		return "idle"
	case SlotSuccess:
		return "success"
	case SlotCollision:
		return "collision"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// Slot is the globally-visible outcome of one channel slot. From and Payload
// are meaningful only when State == SlotSuccess.
type Slot struct {
	State   SlotState
	From    graph.NodeID
	Payload Payload
}

// BusyTone is the distinguished payload nodes transmit on the channel to
// keep a slot non-idle, implementing the channel-as-synchronizer barrier of
// §7.1: an idle slot is a global clock pulse.
type BusyTone struct{}

// Input is what a node receives at the start of a round: the messages sent
// to it in the previous round (sorted by sender id, then edge id) and the
// previous slot's resolution.
type Input struct {
	Round int // the round now beginning (round 0 is the initial step, with no input)
	Msgs  []Message
	Slot  Slot
}

// Metrics aggregates the paper's complexity measures over one run, plus the
// fault-injection counters (zero unless the run had a fault plan).
type Metrics struct {
	Rounds         int   // time complexity: number of rounds executed
	Messages       int64 // point-to-point message complexity
	SlotsIdle      int64
	SlotsSuccess   int64
	SlotsCollision int64
	DroppedHalted  int64 // messages addressed to already-halted nodes

	Crashed         int64 // nodes crash-stopped by fault injection
	DroppedFault    int64 // messages destroyed by link faults
	Delayed         int64 // messages deferred by delay faults
	Duplicated      int64 // extra message copies scheduled by duplicate faults
	SlotsJammed     int64 // slots forced to collision by channel jamming
	PartitionedDrop int64 // messages destroyed because a partition cut their link
	Restarted       int64 // crashed nodes revived by restart faults
	Skewed          int64 // messages deferred because their sender's clock is skewed
}

// Slots returns the total number of channel slots with at least one writer.
func (m *Metrics) Slots() int64 { return m.SlotsSuccess + m.SlotsCollision }

// Communication returns the paper's communication complexity: messages plus
// time (information received over both media).
func (m *Metrics) Communication() int64 { return m.Messages + int64(m.Rounds) }

// Add accumulates other into m (used to total multi-stage algorithms).
func (m *Metrics) Add(other *Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
	m.SlotsIdle += other.SlotsIdle
	m.SlotsSuccess += other.SlotsSuccess
	m.SlotsCollision += other.SlotsCollision
	m.DroppedHalted += other.DroppedHalted
	m.Crashed += other.Crashed
	m.DroppedFault += other.DroppedFault
	m.Delayed += other.Delayed
	m.Duplicated += other.Duplicated
	m.SlotsJammed += other.SlotsJammed
	m.PartitionedDrop += other.PartitionedDrop
	m.Restarted += other.Restarted
	m.Skewed += other.Skewed
}

// MarshalJSON renders the metrics as a flat snake_case object including the
// derived totals, the machine-readable form emitted by mmnet -json.
func (m Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Rounds          int   `json:"rounds"`
		Messages        int64 `json:"messages"`
		SlotsIdle       int64 `json:"slots_idle"`
		SlotsSuccess    int64 `json:"slots_success"`
		SlotsCollision  int64 `json:"slots_collision"`
		SlotsJammed     int64 `json:"slots_jammed"`
		Slots           int64 `json:"slots"`
		Communication   int64 `json:"communication"`
		DroppedHalted   int64 `json:"dropped_halted"`
		Crashed         int64 `json:"crashed"`
		DroppedFault    int64 `json:"dropped_fault"`
		Delayed         int64 `json:"delayed"`
		Duplicated      int64 `json:"duplicated"`
		PartitionedDrop int64 `json:"partitioned_drop"`
		Restarted       int64 `json:"restarted"`
		Skewed          int64 `json:"skewed"`
	}{
		m.Rounds, m.Messages, m.SlotsIdle, m.SlotsSuccess, m.SlotsCollision,
		m.SlotsJammed, m.Slots(), m.Communication(), m.DroppedHalted,
		m.Crashed, m.DroppedFault, m.Delayed, m.Duplicated,
		m.PartitionedDrop, m.Restarted, m.Skewed,
	})
}

// ErrMaxRounds is returned by RunStep when the round budget is exhausted
// before every node halts, which almost always indicates a livelocked
// protocol.
var ErrMaxRounds = errors.New("sim: maximum round count exceeded")

// config holds a run's settings: the options given, then the defaults
// runStepEngine fills in for the rest.
type config struct {
	seed      int64
	maxRounds int
	workers   int
	faults    *fault.Plan // nil = fault-free
	faultsSet bool
	sync      bool
	rec       Recorder          // nil = observability off (the zero-cost path)
	tw        *TranscriptWriter // nil = transcripts off; emission is coordinator-only
	ckpt      *CheckpointSpec
	resume    *Checkpoint
}

// Option configures a run.
type Option func(*config)

// WithSeed sets the master seed from which every node's private RNG is
// derived. Runs with equal seeds are bit-for-bit reproducible.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRounds overrides the default round budget (a deadlock guard).
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// DefaultMaxRounds, when positive, replaces the graph-derived round budget
// of every run that does not pass WithMaxRounds. Chaos experiments set it to
// bound the cost of wedged (livelocked) faulted runs; 0 keeps the generous
// per-graph default.
var DefaultMaxRounds int

// WithWorkers sets the engine's worker count; 0 means DefaultWorkers (and,
// if that is also 0, GOMAXPROCS). By the determinism contract the worker
// count never changes a run's transcript, only its wall-clock time.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// DefaultFaults is the fault plan a run uses when no WithFaults option is
// given; nil (the default) means fault-free. Commands set it from their
// -faults flag so every run a protocol performs — including
// the inner runs of multi-stage algorithms — executes under the plan, with
// each run's fault rounds counted from its own round 0.
var DefaultFaults *fault.Plan

// WithFaults runs the simulation under the given fault plan (nil for an
// explicitly fault-free run, overriding DefaultFaults). The plan is compiled
// against the run's graph; the determinism contract extends to faults: a
// fixed (graph, program, seed, plan) yields a bit-identical transcript at
// any worker count.
func WithFaults(p *fault.Plan) Option {
	return func(c *config) { c.faults = p; c.faultsSet = true }
}

// WithSynchronizer marks the run as a §7.1 synchronizer execution
// (internal/async drives the round structure as simulated clock pulses),
// enabling the fault capabilities that only mean something where a
// synchronizer owns per-node clocks — today that is skew: rules. Plain
// round-synchronous runs reject skew plans at compile time.
func WithSynchronizer() Option { return func(c *config) { c.sync = true } }

// Result holds the outcome of a run.
type Result struct {
	Metrics Metrics
	Results []any // per-node values reported by Machine.Result
}

// finalFrame closes the run's transcript with its outcome.
func (tw *TranscriptWriter) finalFrame(met *Metrics, results []any, runErr error) {
	f := FinalFrame{Met: *met, ResultsDigest: resultsDigest(results), N: len(results)}
	if runErr != nil {
		f.Err = runErr.Error()
	}
	tw.WriteFinal(&f)
}
