package sim

// obs.go is the engine's observability seam: a Recorder interface the
// engine invokes at its phase boundaries and round edges, implemented by
// internal/obs (phase tracing, per-round time series, metrics exposition).
//
// The contract has two halves, both enforced by tests:
//
//   - Zero cost when off. A nil Recorder — the default — is the off switch:
//     every hook site is guarded by a single nil check, no timestamps are
//     read, and nothing is allocated, so the steady-state zero-alloc
//     guarantee of alloc_test.go is unchanged. The engine never reads the
//     wall clock itself (detsource-enforced); all timing lives behind the
//     interface.
//
//   - Observation never alters transcripts. Recorders are write-only from
//     the engine's point of view: nothing a Recorder returns feeds back
//     into execution, so a run with any recorder installed is bit-identical
//     to the same run without one (difftest-enforced, see the root
//     obs_equiv_test.go).
//
// Threading contract for implementations: BeginPhase/EndPhase for a given
// shard are called by whichever goroutine runs that shard's slice of the
// phase (worker goroutines in gate mode, the coordinator on the inline
// path), but never by two goroutines at once for the same shard, and all
// such calls are ordered against RunStart/RoundEnd/RunEnd (coordinator-only)
// by the engine's phase barrier. Per-shard state therefore needs no locks;
// cross-shard aggregates must be atomic.

// Phase identifies one engine execution phase for observability: Step
// (compute), Deliver (slot resolution + message delivery), and Barrier
// (time a participant spent waiting on the phase gate).
type Phase uint8

// The phases, in reporting order.
const (
	PhaseStep Phase = iota
	PhaseDeliver
	PhaseBarrier
	// NumPhases sizes per-phase arrays in recorders.
	NumPhases
)

// String returns the phase's exposition label.
func (p Phase) String() string {
	switch p {
	case PhaseStep:
		return "step"
	case PhaseDeliver:
		return "deliver"
	case PhaseBarrier:
		return "barrier"
	default:
		return "unknown"
	}
}

// Recorder receives engine observability events; internal/obs implements
// it. nil (the default) means observability is off and every hook site
// reduces to one branch.
//
// Implementations must never influence execution: the determinism contract
// (bit-identical transcripts for a fixed graph, program, seed, and plan)
// holds with any recorder installed.
type Recorder interface {
	// RunStart announces a run before round 0: node count, engine (always
	// EngineStep; the parameter stays so existing implementations keep
	// compiling), the resolved worker count, and the shard count.
	// Multi-stage algorithms produce one RunStart per internal run.
	RunStart(n int, engine Engine, workers, shards int)
	// BeginPhase marks the start of a phase on a shard and returns an
	// opaque start token (a monotonic timestamp) handed back to EndPhase.
	BeginPhase(p Phase, shard int) int64
	// EndPhase completes the span opened by the matching BeginPhase.
	EndPhase(p Phase, shard, round int, start int64)
	// FastForward reports a quiescent-stretch skip: slots fromRound through
	// toRound (inclusive) were resolved arithmetically without per-round
	// execution. Their slot counts appear in the next RoundEnd's metrics.
	FastForward(fromRound, toRound int)
	// RoundEnd delivers the run's cumulative metrics after each executed
	// round, with the number of nodes awake for the next round and the
	// round's slot resolution. m is engine-owned and read-only; after a
	// fast-forward the metrics may cover several skipped rounds at once.
	// Called once per executed round, coordinator-side, including the final
	// round of the run.
	RoundEnd(round, awake int, slot SlotState, m *Metrics)
	// RunEnd closes the run opened by RunStart. m is the final metrics; on
	// an aborted run it holds whatever had accrued at the abort.
	RunEnd(m *Metrics)
}

// DefaultRecorder is the recorder a run uses when no WithRecorder option is
// given; nil (the default) means observability off. Commands set it from
// their -trace/-series/-metrics-addr flags so every sim run a protocol
// performs — including the inner runs of multi-stage algorithms — is
// observed, exactly like DefaultFaults.
var DefaultRecorder Recorder

// WithRecorder observes this run with the given recorder (overriding
// DefaultRecorder; nil keeps the default). By the determinism contract a
// recorder never changes a run's transcript, only reports on it.
func WithRecorder(r Recorder) Option {
	return func(c *config) { c.rec = r }
}

// recorder resolves the run's recorder: the WithRecorder option when given,
// DefaultRecorder otherwise.
func (c *config) recorder() Recorder {
	if c.rec != nil {
		return c.rec
	}
	return DefaultRecorder
}

// Sub subtracts other from m field by field — the delta form recorders use
// to turn two cumulative snapshots into one round's (or window's) counts.
// Covered, like Add, by the reflection drift test: a Metrics field added
// without extending Sub fails TestMetricsAddSubCoverEveryField.
func (m *Metrics) Sub(other *Metrics) {
	m.Rounds -= other.Rounds
	m.Messages -= other.Messages
	m.SlotsIdle -= other.SlotsIdle
	m.SlotsSuccess -= other.SlotsSuccess
	m.SlotsCollision -= other.SlotsCollision
	m.DroppedHalted -= other.DroppedHalted
	m.Crashed -= other.Crashed
	m.DroppedFault -= other.DroppedFault
	m.Delayed -= other.Delayed
	m.Duplicated -= other.Duplicated
	m.SlotsJammed -= other.SlotsJammed
	m.PartitionedDrop -= other.PartitionedDrop
	m.Restarted -= other.Restarted
	m.Skewed -= other.Skewed
}
