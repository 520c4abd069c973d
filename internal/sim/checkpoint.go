package sim

// checkpoint.go is the engine's checkpoint/restore seam: a versioned,
// self-describing binary snapshot of everything transcript-affecting at a
// round boundary, from which Resume continues the run bit-identically — the
// transcript of a checkpointed-and-resumed run stitches onto the original's
// prefix to exactly the bytes of an uninterrupted run (difftest-enforced).
//
// A checkpoint is captured at the top of a round iteration, coordinator-side
// with every worker waiting for its next phase, and records: the round and
// cumulative Metrics, the slot the next step phase will observe, per-node
// scheduler flags and results, per-node machine state (through the
// Snapshotter interface), per-node RNG positions (draw counts — see
// rng.go), undelivered inboxes, and the engine's in-flight delay/dup
// buffer. All of it is stored in canonical, shard-independent form — awake
// sets as per-node flags, pending messages sorted by (due, to, from, edge,
// payload) — so the same run checkpointed at the same round produces
// byte-identical checkpoints at any worker count, which is what
// cmd/mmreplay's bisector compares.
//
// What cannot checkpoint: machines that do not implement Snapshotter, and
// nodes parked by SleepUntilRound, whose wake round the format does not
// carry; such a run fails at its first capture with a diagnostic naming the
// node, and a resume rejects a checkpoint that carries no state for a live
// node.
//
// # Wire format (version 1)
//
//	"MMCP" | version byte | uvarint bodyLen | gob(Checkpoint) | crc32-IEEE(body), 4 bytes LE
//
// The gob body is self-describing; payload, result, and machine-state
// values carried in `any` fields must be gob-registered by their protocol
// packages (init-time gob.Register calls).

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
)

// CheckpointVersion is the checkpoint wire format version this package
// writes.
const CheckpointVersion = 1

const checkpointMagic = "MMCP"

// Snapshotter is the interface a Machine implements to make its runs
// checkpointable. SnapshotState returns an independent copy of the
// machine's round-to-round state (the machine keeps mutating after the
// capture, so shared slices or maps must be cloned); the returned value's
// concrete type must be gob-registered. RestoreState receives a value
// SnapshotState produced and overwrites the machine's state with it, after
// which stepping must continue exactly as the snapshotted machine would
// have.
type Snapshotter interface {
	SnapshotState() any
	RestoreState(state any)
}

// CheckpointSpec configures checkpoint capture for a run.
type CheckpointSpec struct {
	// Every captures a checkpoint each time this many rounds complete
	// (0 disables periodic capture).
	Every int
	// At captures at these specific completed-round counts.
	At []int
	// Sink receives each captured checkpoint; a sink error aborts the run.
	// The checkpoint is freshly built and owned by the sink.
	Sink func(*Checkpoint) error
}

// WithCheckpoints captures checkpoints during this run per the spec. Every
// machine must implement Snapshotter; otherwise the run fails at its first
// capture. Capture happens at round boundaries,
// coordinator-side, and never alters the run's transcript.
func WithCheckpoints(spec *CheckpointSpec) Option {
	return func(c *config) { c.ckpt = spec }
}

// ckptState is the engine's compiled capture schedule.
type ckptState struct {
	spec  *CheckpointSpec
	every int
	at    []int // sorted ascending
}

func newCkptState(spec *CheckpointSpec) *ckptState {
	ck := &ckptState{spec: spec, every: spec.Every}
	if len(spec.At) > 0 {
		ck.at = slices.Clone(spec.At)
		slices.Sort(ck.at)
	}
	return ck
}

// due reports whether a checkpoint is scheduled at the given completed-round
// count.
//
//mmlint:noalloc
func (ck *ckptState) due(round int) bool {
	if ck.every > 0 && round%ck.every == 0 {
		return true
	}
	if len(ck.at) > 0 {
		if _, found := slices.BinarySearch(ck.at, round); found {
			return true
		}
	}
	return false
}

// nextAfter returns the earliest scheduled capture round strictly after r —
// the fast-forward clamp that makes the engine land on capture rounds
// instead of skipping them.
//
//mmlint:noalloc
func (ck *ckptState) nextAfter(r int) (int, bool) {
	next, ok := 0, false
	if ck.every > 0 {
		if r < 0 {
			r = 0
		}
		next, ok = (r/ck.every+1)*ck.every, true
	}
	if len(ck.at) > 0 {
		if i := sort.SearchInts(ck.at, r+1); i < len(ck.at) && (!ok || ck.at[i] < next) {
			next, ok = ck.at[i], true
		}
	}
	return next, ok
}

// SlotCheckpoint is the slot the next step phase will observe.
type SlotCheckpoint struct {
	State   SlotState
	From    graph.NodeID
	Payload Payload
}

// NodeCheckpoint is one node's scheduler and protocol state.
type NodeCheckpoint struct {
	Halted    bool
	Scheduled bool
	Asleep    bool
	PulseWake bool

	HasRNG   bool
	RNGDraws uint64 // generator position: source draws consumed so far

	// Crash-restart state; all zero for runs without restart rules, which
	// keeps old checkpoints decoding unchanged (gob zero defaults).
	Crashed     bool // fault-crashed, so revivable by a restart rule
	Incarnation int  // restart count; keys the incarnation's RNG stream
	RoundBase   int  // global round the current incarnation joined at

	Result any // recorded result (halted nodes); nil otherwise

	HasState bool
	State    any // Snapshotter state; every live node has one
}

// InboxCheckpoint is one node's undelivered inbox (sorted by sender, edge).
type InboxCheckpoint struct {
	Node graph.NodeID
	Msgs []Message
}

// PendingCheckpoint is one in-flight delayed or duplicated message.
type PendingCheckpoint struct {
	Due     int // delivery round
	To      graph.NodeID
	From    graph.NodeID
	EdgeID  int
	Payload Payload
}

// Checkpoint is a step-engine run frozen at a round boundary. Its exported
// fields are the complete transcript-affecting state; WriteTo/ReadCheckpoint
// move it through the versioned binary encoding.
type Checkpoint struct {
	Round     int // completed rounds at capture
	N         int
	Graph     uint64 // adjacency fingerprint (topologyDigest); 0 in hand-built checkpoints
	Seed      int64
	Plan      string // fault plan DSL ("" = fault-free)
	MaxRounds int

	Alive   int
	Met     Metrics
	Slot    SlotCheckpoint
	Nodes   []NodeCheckpoint
	Inboxes []InboxCheckpoint
	Pending []PendingCheckpoint
}

// WriteTo streams the checkpoint in the versioned binary encoding.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(cp); err != nil {
		return 0, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	var hdr []byte
	hdr = append(hdr, checkpointMagic...)
	hdr = append(hdr, CheckpointVersion)
	hdr = binary.AppendUvarint(hdr, uint64(body.Len()))
	total := int64(0)
	for _, chunk := range [][]byte{hdr, body.Bytes(), crcOf(body.Bytes())} {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func crcOf(b []byte) []byte {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b))
	return crc[:]
}

// Encode renders the checkpoint to its binary form in memory.
func (cp *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadCheckpoint decodes one checkpoint, validating magic, version, and crc.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var prelude [5]byte
	if _, err := io.ReadFull(r, prelude[:]); err != nil {
		return nil, fmt.Errorf("sim: checkpoint prelude: %w", err)
	}
	if string(prelude[:4]) != checkpointMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (magic %q)", prelude[:4])
	}
	if prelude[4] != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d (reader supports %d)", prelude[4], CheckpointVersion)
	}
	size, err := binary.ReadUvarint(byteReaderOf(r))
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint length: %w", err)
	}
	if size > 1<<34 {
		return nil, fmt.Errorf("sim: checkpoint length %d implausible", size)
	}
	body, err := readBody(r, size+4)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint body: %w", err)
	}
	want := binary.LittleEndian.Uint32(body[size:])
	body = body[:size]
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("sim: checkpoint crc mismatch: %08x != %08x", got, want)
	}
	cp := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(cp); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	return cp, nil
}

// topologyDigest fingerprints the adjacency structure a checkpoint's state
// refers to: node and edge counts plus every node's link order (neighbor and
// edge id). Edge identities and link indices appear throughout the captured
// state — inboxes, pending messages, machine snapshots — so resuming on a
// graph with a different digest (same node count, different wiring or link
// order, e.g. the same generator under another seed) would silently corrupt
// the run instead of continuing it.
func topologyDigest(g graph.Topology) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) { h = (h ^ v) * prime }
	n := g.N()
	mix(uint64(n))
	mix(uint64(g.M()))
	var scratch graph.AdjScratch
	for v := 0; v < n; v++ {
		adj := g.AdjView(graph.NodeID(v), &scratch)
		mix(uint64(len(adj)))
		for _, half := range adj {
			mix(uint64(half.To))
			mix(uint64(half.EdgeID))
		}
	}
	return h
}

// graphDigest caches topologyDigest for the engine's fixed topology.
func (e *stepEngine) graphDigest() uint64 {
	if e.topoDigest == 0 {
		e.topoDigest = topologyDigest(e.topo)
	}
	return e.topoDigest
}

// writeCheckpoint captures the engine's state at the top of the given
// iteration (round completed rounds) and hands it to the spec's sink. Runs
// coordinator-side between rounds: workers are parked, so reading shard and
// node state races nothing.
func (e *stepEngine) writeCheckpoint(round int) error {
	n := e.topo.N()
	cp := &Checkpoint{
		Round:     round,
		N:         n,
		Graph:     e.graphDigest(),
		Seed:      e.cfg.seed,
		Plan:      e.cfg.faults.String(),
		MaxRounds: e.cfg.maxRounds,
		Alive:     e.alive,
		Met:       e.met,
		Slot:      SlotCheckpoint{State: e.slot.State, From: e.slot.From, Payload: e.slot.Payload},
		Nodes:     make([]NodeCheckpoint, n),
	}
	if cp.Slot.State == 0 {
		// Round 0 has not resolved a slot yet; normalize to idle, which is
		// what the zero Slot means to machines.
		cp.Slot.State = SlotIdle
	}
	for v := range e.nodes {
		fl := e.flags[v]
		ns := &cp.Nodes[v]
		ns.Halted = fl&flagHalted != 0
		ns.Scheduled = fl&flagScheduled != 0
		ns.Asleep = fl&flagAsleep != 0
		ns.PulseWake = fl&flagPulseWake != 0
		sd := e.shardOf(graph.NodeID(v))
		if sd.rngDraws != nil {
			if draws := sd.rngDraws[v-sd.lo]; draws > 0 {
				ns.HasRNG = true
				ns.RNGDraws = draws
			}
		}
		if e.roundBase != nil {
			ns.Crashed = fl&flagCrashed != 0
			ns.Incarnation = int(e.incarn[v])
			ns.RoundBase = int(e.roundBase[v])
		}
		ns.Result = e.results[v]
		if ns.Halted {
			continue // dead machines are never stepped again; no state needed
		}
		if fl&(flagAsleep|flagRoundWake) == flagAsleep|flagRoundWake {
			return fmt.Errorf("node %d is parked by SleepUntilRound, which a checkpoint cannot record", v)
		}
		snap, ok := e.machines[v].(Snapshotter)
		if !ok {
			return fmt.Errorf("machine %T of node %d is not a sim.Snapshotter", e.machines[v], v)
		}
		ns.HasState = true
		ns.State = snap.SnapshotState()
	}
	for v := range e.nodes {
		box := e.inboxOf(graph.NodeID(v))
		if e.flags[v]&flagHalted != 0 || len(box) == 0 {
			continue
		}
		cp.Inboxes = append(cp.Inboxes, InboxCheckpoint{
			Node: graph.NodeID(v),
			Msgs: slices.Clone(box),
		})
	}
	for i := range e.shards {
		sd := &e.shards[i]
		//mmlint:commutative gathered into one slice and canonically sorted below
		for due, lst := range sd.pending {
			for _, m := range lst {
				cp.Pending = append(cp.Pending, PendingCheckpoint{
					Due: due, To: m.to, From: m.from, EdgeID: int(m.edgeID), Payload: m.payload,
				})
			}
		}
	}
	// Canonical order: independent of shard partition (worker count) and map
	// iteration, so equal runs yield byte-equal checkpoints.
	slices.SortFunc(cp.Pending, func(a, b PendingCheckpoint) int {
		if c := a.Due - b.Due; c != 0 {
			return c
		}
		if c := int(a.To - b.To); c != 0 {
			return c
		}
		if c := int(a.From - b.From); c != 0 {
			return c
		}
		if c := a.EdgeID - b.EdgeID; c != 0 {
			return c
		}
		return strings.Compare(fmt.Sprintf("%#v", a.Payload), fmt.Sprintf("%#v", b.Payload))
	})
	return e.ck.spec.Sink(cp)
}

// restore loads a checkpoint into a freshly initialized engine: flags,
// results, RNG positions, machine state, inboxes, and the pending buffer,
// with awake lists and pulse-sleeper sets rebuilt from the per-node flags.
// Machine construction (the init hook) has already run, so Snapshotter
// restores overwrite freshly built machines; every live node must carry
// state.
func (e *stepEngine) restore(cp *Checkpoint) error {
	n := e.topo.N()
	if cp.N != n {
		return fmt.Errorf("sim: checkpoint is for %d nodes, graph has %d", cp.N, n)
	}
	if len(cp.Nodes) != n {
		return fmt.Errorf("sim: checkpoint has %d node records, want %d", len(cp.Nodes), n)
	}
	if cp.Graph != 0 && cp.Graph != e.graphDigest() {
		return fmt.Errorf("sim: checkpoint graph digest %016x does not match this topology's %016x — resume needs the exact graph (same generator, flags, and seed) the checkpoint was captured from", cp.Graph, e.graphDigest())
	}
	e.met = cp.Met
	e.alive = cp.Alive
	e.slot = Slot{State: cp.Slot.State, From: cp.Slot.From, Payload: cp.Slot.Payload}
	for i := range e.shards {
		e.shards[i].awake = e.shards[i].awake[:0]
	}
	for v := range cp.Nodes {
		id := graph.NodeID(v)
		ns := &cp.Nodes[v]
		var fl uint8
		if ns.Halted {
			fl |= flagHalted
		}
		if ns.Scheduled {
			fl |= flagScheduled
		}
		if ns.Asleep {
			fl |= flagAsleep
		}
		if ns.PulseWake {
			fl |= flagPulseWake
		}
		if ns.Crashed {
			fl |= flagCrashed
		}
		e.flags[v] = fl
		e.results[v] = ns.Result
		if e.roundBase != nil {
			// Before the RNG restore: seedOf reads the incarnation.
			e.incarn[v] = int32(ns.Incarnation)
			e.roundBase[v] = int32(ns.RoundBase)
		}
		sd := &e.shards[v/e.shardSize]
		if ns.HasRNG {
			if sd.rngWord == nil {
				sd.ensureRNG()
			}
			// Position the raw stream directly: the state word after
			// RNGDraws gamma steps from the incarnation's seed.
			sd.rngWord[v-sd.lo] = rngWordAt(e.seedOf(id), ns.RNGDraws)
			sd.rngDraws[v-sd.lo] = ns.RNGDraws
		}
		if !ns.Halted {
			if !ns.HasState {
				return fmt.Errorf("sim: checkpoint has no state for live node %d", v)
			}
			snap, ok := e.machines[v].(Snapshotter)
			if !ok {
				return fmt.Errorf("sim: checkpoint has Snapshotter state for node %d but machine %T does not implement it", v, e.machines[v])
			}
			snap.RestoreState(ns.State)
		}
		if ns.Scheduled && !ns.Halted {
			sd.awake = append(sd.awake, int32(v))
		}
		if ns.PulseWake && !ns.Halted {
			sd.pulseSleepers = append(sd.pulseSleepers, int32(v))
		}
	}
	for i := range cp.Inboxes {
		ib := &cp.Inboxes[i]
		if int(ib.Node) < 0 || int(ib.Node) >= n {
			return fmt.Errorf("sim: checkpoint inbox for node %d out of range", ib.Node)
		}
		// Append the inbox into the owning shard's arena and record the
		// window. Offsets survive arena reallocation (they are indices, not
		// pointers), so plain appends are safe here.
		sd := &e.shards[int(ib.Node)/e.shardSize]
		e.inboxOff[ib.Node] = int32(len(sd.inboxArena))
		e.inboxLen[ib.Node] = int32(len(ib.Msgs))
		sd.inboxArena = append(sd.inboxArena, ib.Msgs...)
	}
	for i := range cp.Pending {
		p := &cp.Pending[i]
		if int(p.To) < 0 || int(p.To) >= n {
			return fmt.Errorf("sim: checkpoint pending message to node %d out of range", p.To)
		}
		sd := &e.shards[int(p.To)/e.shardSize]
		if sd.pending == nil {
			sd.pending = make(map[int][]delivered)
		}
		sd.pending[p.Due] = append(sd.pending[p.Due], delivered{
			to: p.To, from: p.From, edgeID: int32(p.EdgeID), payload: p.Payload,
		})
		sd.pendingN++
	}
	return nil
}

// Resume continues a checkpointed run on the step engine: g and program
// must be the ones the checkpoint was captured from (the graph is validated
// by node count and adjacency digest — the topology itself is not
// serialized, so the caller must rebuild it with the same generator, flags,
// and seed). The seed,
// fault plan, and round budget are taken from the checkpoint; remaining
// options (workers, recorder, transcript, further checkpoints) apply as
// usual. The resumed run's transcript picks up at the round after the
// checkpoint and, stitched onto the original's prefix, is byte-identical to
// an uninterrupted run's.
func Resume(g graph.Topology, program StepProgram, cp *Checkpoint, opts ...Option) (*Result, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.seed = cp.Seed
	cfg.maxRounds = cp.MaxRounds
	cfg.faultsSet = true
	cfg.faults = nil
	if cp.Plan != "" {
		p, err := fault.Parse(cp.Plan)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint fault plan: %w", err)
		}
		cfg.faults = p
	}
	cfg.resume = cp
	return runStepEngine(g, program, cfg)
}

func init() {
	// The engine's own payloads that can appear in checkpoint `any` fields.
	gob.Register(BusyTone{})
}
