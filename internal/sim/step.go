package sim

// step.go implements the engine: the synchronous multimedia-network model of
// sim.go, executed as explicit per-node state machines on a sharded worker
// pool.
//
// Nodes are partitioned into contiguous shards. Every round has two
// barrier-separated phases:
//
//	step     each worker steps the awake machines of its shard; sends and
//	         channel writes are staged into per-shard, per-destination-shard
//	         outbox buckets (no locks, no per-node channel handoffs);
//	deliver  each worker drains the buckets addressed to its shard into the
//	         shard's inbox arena, sorts multi-message inboxes by (sender,
//	         edge id), and wakes sleeping recipients.
//
// The phases are coordinated by a persistent-worker, sense-reversing atomic
// barrier (gate.go): a phase transition costs a few atomics, not 2×shards
// channel operations, and shards with nothing to do in a phase are skipped
// by a shared need-check. All buffers (inbox arenas, outboxes, awake lists)
// are reused across rounds, so a steady-state round allocates nothing beyond
// what machines themselves allocate. Machines that have nothing to do until
// a message arrives call StepCtx.Sleep; combined with the awake lists this
// makes the per-round cost proportional to the number of active nodes, not
// n. When every live node is parked the engine does not even spin empty
// rounds: it fast-forwards straight to the next event that can wake a
// machine (fastForward below), so fully quiescent stretches cost zero.
//
// # Memory layout
//
// Per-node bookkeeping is struct-of-arrays, sized for 10⁸-node censuses:
// the engine holds one parallel array per field — a one-byte flags word
// (asleep/pulseWake/scheduled/halted/crashed), the Machine interface, the
// recorded result, and the (offset, length) of the node's window in its
// shard's inbox arena — instead of a fat per-node struct. The StepCtx a
// machine captures is a 16-byte handle (node id + engine pointer); every
// StepCtx method resolves per-node state through the arrays. Round-scoped
// scratch that the old layout kept per node (staged sends, the channel
// write, the duplicate-send guard, the RNG generator, the high-degree
// neighbor index, implicit-form adjacency) lives once per shard: shards are
// single-threaded within a phase and machines step one at a time, so one
// node's scratch can be recycled for the next. Per-node RNG state is the
// raw SplitMix64 (state word, draw count) pair in two lazily allocated
// per-shard arrays — see rng.go — not a boxed generator per node.
//
// Ownership rules this layout imposes (all were already part of the
// documented Machine contract, now load-bearing): an Input and its Msgs are
// valid only during the Step call they are passed to; the *rand.Rand
// returned by StepCtx.Rand is valid only during the current Step (or init)
// call and must be re-fetched each time, never stored; adjacency slices
// returned by internal helpers are per-shard memos. The mmlint ctxescape
// analyzer polices StepCtx-derived state escaping a machine.
//
// Determinism: machines are constructed and stepped against per-node state
// only, per-node RNGs are derived from (master seed, node id) alone, and
// inboxes are sorted to one (sender, edge id) order, so a fixed seed yields
// a bit-identical transcript for any worker count.

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Engine names an execution model in Recorder.RunStart. EngineStep is the
// only one: every run is a RunStep over Machines.
type Engine int

// EngineStep is the sharded step-machine engine.
const EngineStep Engine = 1

// String returns the engine's label.
func (e Engine) String() string {
	if e == EngineStep {
		return "step"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// DefaultEngine has no effect: there is one engine. It is kept, with Engine
// and EngineStep, only so code that still assigns it keeps compiling.
var DefaultEngine = EngineStep

// DefaultWorkers is the step engine's worker count when no WithWorkers
// option is given; 0 means GOMAXPROCS.
var DefaultWorkers = 0

// Machine is one node's compiled step program: the per-round half of the
// native step API.
//
// Step is called once per round with that round's input (round 0 carries no
// messages and a zero slot: the node's initial compute). Sends and channel
// writes staged during Step are
// committed when it returns; returning true halts the node, with any staged
// sends still delivered. The Input and its Msgs are engine-owned and only
// valid during the call.
//
// Result is the result hook: it is called once, when the node halts, and
// its value lands in the run's Result.Results slot for the node. A node
// crash-stopped by fault injection records a nil result instead — it never
// reached its halt.
type Machine interface {
	Step(in Input) (halt bool)
	Result() any
}

// StepProgram is the init hook of the native step API: it is called once
// per node, in node order, before round 0, and returns the node's Machine.
// Implementations typically capture c and per-node protocol state in the
// returned machine. It must not send or write the channel; it may draw from
// c.Rand.
type StepProgram func(c *StepCtx) Machine

// stagedSend is one queued point-to-point message in a shard's staging
// buffer. link is the sender-local link index, used to reset the duplicate-
// send guard.
type stagedSend struct {
	to      graph.NodeID
	edgeID  int32
	link    int32
	payload Payload
}

// delivered is one message in flight between the step and deliver phases.
type delivered struct {
	to      graph.NodeID
	from    graph.NodeID
	edgeID  int32
	payload Payload
}

// peerLink is one entry of a shard's high-degree neighbor index, sorted by
// peer id for binary search.
type peerLink struct {
	peer graph.NodeID
	link int32
}

// Per-node scheduler flags, packed into one byte of stepEngine.flags.
const (
	flagAsleep    uint8 = 1 << iota // set by Sleep, cleared before every Step
	flagPulseWake                   // set by SleepUntilPulse: also wake on an idle slot
	flagScheduled                   // already on some shard's awake list for the next round
	flagHalted
	flagCrashed // fault-crashed (revivable by a restart rule), not a normal halt
)

// StepCtx is a node's handle to the network. It is a 16-byte (id, engine)
// pair — all per-node state lives
// in the engine's parallel arrays and the shard's scratch. All methods must
// be called only from the node's Machine during Step (or from its
// StepProgram during construction, for the read-only ones). Methods panic
// on model violations; a panic aborts the run with an error naming the
// node.
type StepCtx struct {
	id  graph.NodeID
	eng *stepEngine
}

// ID returns this node's identifier.
func (c *StepCtx) ID() graph.NodeID { return c.id }

// N returns the number of nodes in the network (known to all nodes, §2).
func (c *StepCtx) N() int { return c.eng.topo.N() }

// Topo returns the immutable network topology.
func (c *StepCtx) Topo() graph.Topology { return c.eng.topo }

// shard returns the shard owning this node. Per-node round scratch (staged
// sends, the RNG generator, adjacency memos) lives there: a shard steps its
// machines one at a time, so the scratch is exclusively the current node's
// for the duration of its Step.
//
//mmlint:noalloc
func (c *StepCtx) shard() *stepShard {
	return &c.eng.shards[int(c.id)/c.eng.shardSize]
}

// Adj returns this node's incident links sorted by ascending weight. On an
// implicit topology every call computes (and allocates) the list; machines
// on hot paths should capture it once or use Degree/Send/LinkOf, which
// never materialize adjacency.
func (c *StepCtx) Adj() []graph.Half {
	if g := c.eng.mat; g != nil {
		return g.Adj(c.id)
	}
	return c.eng.topo.Adj(c.id)
}

// Degree returns the number of incident links.
func (c *StepCtx) Degree() int {
	if g := c.eng.mat; g != nil {
		return g.Degree(c.id)
	}
	return c.eng.topo.Degree(c.id)
}

// Round returns the current round number (a restarted incarnation counts
// from its revival).
func (c *StepCtx) Round() int {
	r := c.eng.round
	if rb := c.eng.roundBase; rb != nil {
		r -= int(rb[c.id])
	}
	return r
}

// Rand returns this node's private deterministic RNG, derived from the
// master seed and the node id (rng.go). The generator is a shard-
// shared rand.Rand over the node's (state word, draw count) slot in the
// shard's RNG arrays — two words per node instead of a boxed generator —
// so the returned value is positioned for this node only until Step
// returns: re-fetch it every call, never store it.
func (c *StepCtx) Rand() *rand.Rand {
	sd := c.shard()
	if sd.rngWord == nil {
		sd.ensureRNG()
	}
	i := int(c.id) - sd.lo
	if sd.rngDraws[i] == 0 {
		// Position 0: (re)derive the stream head from the node's seed. The
		// derivation is idempotent, so repeating it before the first draw —
		// or after a restart reset the slot — lands on the same word.
		sd.rngWord[i] = uint64(c.eng.seedOf(c.id))
	}
	sd.rngSrc.i = i
	return sd.rng
}

// LinkOf returns the local link index of the given edge id. The stored
// form answers from the engine's O(m) edge index; implicit forms answer
// from the shard's adjacency memo — a linear scan, or a weight-keyed binary
// search at high degree — so a node resolving its whole inbox pays one memo
// fill, not one allocating topology query per message.
func (c *StepCtx) LinkOf(edgeID int) int {
	if la := c.eng.linkAt; la != nil {
		if edgeID < 0 || edgeID >= len(la) {
			panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
		}
		e := c.eng.mat.Edge(edgeID)
		switch c.id {
		case e.U:
			return int(la[edgeID][0])
		case e.V:
			return int(la[edgeID][1])
		default:
			panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
		}
	}
	adj := c.eng.shardAdj(c.shard(), c.id)
	if len(adj) >= linkIndexThreshold && edgeID >= 0 && edgeID < c.eng.topo.M() {
		// Adjacency is sorted by ascending weight: binary-search the edge's
		// weight, then walk any equal-weight run for the id itself.
		w := c.eng.topo.Edge(edgeID).Weight
		i, _ := slices.BinarySearchFunc(adj, w, func(h graph.Half, t graph.Weight) int { return cmp.Compare(h.Weight, t) })
		for ; i < len(adj) && adj[i].Weight == w; i++ {
			if adj[i].EdgeID == int32(edgeID) {
				return i
			}
		}
		panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
	}
	for l := range adj {
		if adj[l].EdgeID == int32(edgeID) {
			return l
		}
	}
	panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
}

// linkIndexThreshold: below this degree a linear Adj scan beats building
// and searching the sorted neighbor index.
const linkIndexThreshold = 16

// Link returns the local link index leading to the given neighbor. For
// high-degree nodes the lookup is O(log d) through a sorted neighbor index
// cached in the shard (one index, keyed by the node that built it — a star
// hub answering n-1 SendTo calls rebuilds it at most once per round).
func (c *StepCtx) Link(to graph.NodeID) (int, bool) {
	d := c.Degree()
	sd := c.shard()
	if d < linkIndexThreshold {
		if g := c.eng.mat; g != nil {
			for l, h := range g.Adj(c.id) {
				if h.To == to {
					return l, true
				}
			}
			return 0, false
		}
		for l, h := range c.eng.shardAdj(sd, c.id) {
			if h.To == to {
				return l, true
			}
		}
		return 0, false
	}
	if sd.idxNode != int32(c.id) {
		var adj []graph.Half
		if g := c.eng.mat; g != nil {
			adj = g.Adj(c.id)
		} else {
			adj = c.eng.shardAdj(sd, c.id)
		}
		sd.peerIdx = sd.peerIdx[:0]
		for l, h := range adj {
			sd.peerIdx = append(sd.peerIdx, peerLink{peer: h.To, link: int32(l)})
		}
		slices.SortFunc(sd.peerIdx, func(a, b peerLink) int { return cmp.Compare(a.peer, b.peer) })
		sd.idxNode = int32(c.id)
	}
	i, ok := slices.BinarySearchFunc(sd.peerIdx, to, func(e peerLink, t graph.NodeID) int { return cmp.Compare(e.peer, t) })
	if !ok {
		return 0, false
	}
	return int(sd.peerIdx[i].link), true
}

// Send queues a message on the link with the given local index for delivery
// at the start of the next round. At most one message may be sent per link
// per round.
func (c *StepCtx) Send(link int, p Payload) {
	sd := c.shard()
	var h graph.Half
	if g := c.eng.mat; g != nil {
		adj := g.Adj(c.id)
		if link < 0 || link >= len(adj) {
			panic(fmt.Sprintf("sim: node %d send on link %d of %d", c.id, link, len(adj)))
		}
		h = adj[link]
	} else {
		adj := c.eng.shardAdj(sd, c.id)
		if link < 0 || link >= len(adj) {
			panic(fmt.Sprintf("sim: node %d send on link %d of %d", c.id, link, len(adj)))
		}
		h = adj[link]
	}
	w, bit := link>>6, uint64(1)<<(link&63)
	if w >= len(sd.sentBits) {
		sd.growSentBits(w)
	}
	if sd.sentBits[w]&bit != 0 {
		panic(fmt.Sprintf("sim: node %d sent twice on edge %d in round %d", c.id, h.EdgeID, c.Round()))
	}
	sd.sentBits[w] |= bit
	sd.stage = append(sd.stage, stagedSend{to: h.To, edgeID: int32(h.EdgeID), link: int32(link), payload: p})
}

// SendTo queues a message to the given neighbor.
func (c *StepCtx) SendTo(to graph.NodeID, p Payload) {
	l, ok := c.Link(to)
	if !ok {
		panic(fmt.Sprintf("sim: node %d is not adjacent to %d", c.id, to))
	}
	c.Send(l, p)
}

// Broadcast writes p to the current channel slot. At most one write per
// round; the slot resolves to success only if this node is the sole writer.
func (c *StepCtx) Broadcast(p Payload) {
	sd := c.shard()
	if sd.chPending {
		panic(fmt.Sprintf("sim: node %d wrote the channel twice in round %d", c.id, c.Round()))
	}
	sd.chPending = true
	sd.chWrite = p
}

// Busy transmits a busy tone on the channel this round (§7.1 barrier).
func (c *StepCtx) Busy() { c.Broadcast(BusyTone{}) }

// SentThisRound reports whether this node queued any point-to-point message
// in the current round.
func (c *StepCtx) SentThisRound() bool { return len(c.shard().stage) > 0 }

// Sleep parks this node after the current Step returns: the engine skips it
// every round until a message arrives, at which point it is woken and
// stepped with that round's input. A sleeping node does not observe the
// channel, so only protocols that synchronize by messages may use it; it is
// what makes wavefront protocols on million-node graphs cost O(work), not
// O(n·rounds). Sleeping with no message ever due wedges the protocol; the
// engine detects the fully quiescent case and fails the run.
func (c *StepCtx) Sleep() { c.eng.flags[c.id] |= flagAsleep }

// SleepUntilPulse parks this node like Sleep, but additionally wakes it on
// the barrier pulse: the first round whose input carries an idle slot
// (Input.IsPulse). It is the sparse-activation primitive for protocols
// synchronized by the §7.1 channel barrier — a node that is passive within a
// barrier step (it will act again only on a message or when the step
// globally terminates) may park instead of observing every busy slot, which
// turns O(n · rounds) barrier phases into O(work). A node woken by a message
// before the pulse is stepped normally; if it parks again it must call
// SleepUntilPulse again.
func (c *StepCtx) SleepUntilPulse() { c.eng.flags[c.id] |= flagAsleep | flagPulseWake }

// failError carries a protocol-level failure out of a Machine via panic;
// the engine records it verbatim instead of as a node panic.
type failError struct{ err error }

// Failf aborts the run with an error attributed to this node, worded
// "sim: node <id>: <message>".
func (c *StepCtx) Failf(format string, args ...any) {
	panic(failError{err: fmt.Errorf(format, args...)})
}

// shardRNG adapts one node's (word, draws) slot in the shard's RNG arrays
// to rand.Source64; StepCtx.Rand points i at the calling node. Each draw is
// one canonical SplitMix64 step (rng.go), which checkpoint resume leans on.
type shardRNG struct {
	sd *stepShard
	i  int
}

//mmlint:noalloc
func (s *shardRNG) Uint64() uint64 {
	w := s.sd.rngWord[s.i] + splitmixGamma
	s.sd.rngWord[s.i] = w
	s.sd.rngDraws[s.i]++
	return splitmix64(w)
}

//mmlint:noalloc
func (s *shardRNG) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *shardRNG) Seed(int64) {
	panic("sim: node RNG streams are derived, not reseedable")
}

// stepShard is one contiguous slice of the node range plus every per-shard
// buffer the two phases reuse round after round, including the scratch the
// node currently stepping stages into.
type stepShard struct {
	lo, hi int

	awake []int32 // nodes to step this round; survivors + woken for the next
	next  []int32 // scratch for building the survivor list

	// Nodes of this shard parked by SleepUntilPulse, woken in the delivery
	// phase of the first round whose slot resolved idle. Entries are lazily
	// invalidated: a node woken early by a message clears its pulseWake flag
	// on its next step, so stale entries are skipped when the pulse fires.
	pulseSleepers []int32

	out     [][]delivered // staged messages, bucketed by destination shard
	touched []int32       // nodes that received mail this round (sort + reuse)

	// Delayed and duplicated messages addressed to this shard, held until
	// their fault-assigned delivery round. Shard-local, so the delivery
	// phase mutates it without locks. Drained buckets are recycled through
	// pendingFree instead of reallocated.
	pending     map[int][]delivered
	pendingN    int
	pendingFree [][]delivered

	// Delivery scratch: the round's surviving messages in arrival order,
	// per-node counts/offsets, and the arena the inbox windows are carved
	// from — all reused round after round.
	arrivals   []delivered
	counts     []int32
	inboxArena []Message

	// Staging scratch for the node currently stepping: its queued sends,
	// channel write, and per-link duplicate-send bitmap (cleared link by
	// link when the node commits).
	stage     []stagedSend
	chPending bool
	chWrite   Payload
	sentBits  []uint64

	// Per-node RNG state — SplitMix64 (word, draws) pairs indexed by
	// node-lo — and the shard-shared generator over it, all allocated on
	// the shard's first Rand call.
	rngWord  []uint64
	rngDraws []uint64
	rngSrc   shardRNG
	rng      *rand.Rand

	// Single-entry caches keyed by node id: the high-degree neighbor index
	// (Link) and the implicit-form adjacency memo (Send/Link/LinkOf), each
	// rebuilt only when a different node of the shard needs it.
	idxNode    int32
	peerIdx    []peerLink
	memoNode   int32
	memoAdj    []graph.Half
	adjScratch graph.AdjScratch

	writers       int
	writerID      graph.NodeID
	writerPayload Payload
	halts         int
	msgs          int64
	dropped       int64
	faultDrops    int64
	delayed       int64
	duped         int64
	partDrops     int64
	skewed        int64
}

// ensureRNG allocates the shard's RNG arrays and shared generator; called
// once per shard, on its first Rand.
func (sd *stepShard) ensureRNG() {
	sd.rngWord = make([]uint64, sd.hi-sd.lo)
	sd.rngDraws = make([]uint64, sd.hi-sd.lo)
	sd.rngSrc = shardRNG{sd: sd}
	sd.rng = rand.New(&sd.rngSrc)
}

// growSentBits extends the duplicate-send bitmap to cover word index w;
// amortized over the run it allocates O(log maxDegree) times.
func (sd *stepShard) growSentBits(w int) {
	for w >= len(sd.sentBits) {
		sd.sentBits = append(sd.sentBits, 0)
	}
}

// arenaFor returns the shard's inbox arena resized to n messages, dropping
// the previous round's payload references. Elements beyond len are kept
// zero, so growing within capacity exposes only cleared slots.
func (sd *stepShard) arenaFor(n int) []Message {
	if cap(sd.inboxArena) < n {
		sd.inboxArena = make([]Message, n)
		return sd.inboxArena
	}
	clear(sd.inboxArena)
	sd.inboxArena = sd.inboxArena[:n]
	return sd.inboxArena
}

const (
	phaseStep int8 = iota + 1
	phaseDeliver
	// inlineThreshold: with fewer awake nodes than this, the coordinator
	// steps them itself rather than paying the worker fan-out/fan-in.
	inlineThreshold = 256
)

type stepEngine struct {
	topo    graph.Topology
	mat     *graph.Graph    // topo's stored form, or nil — gates the O(m) fast-path indexes
	imp     *graph.Implicit // topo's implicit form, or nil — gates scratch-reusing adjacency
	cfg     config
	program StepProgram       // the init hook, kept for crash-restart revival
	inj     *fault.Injector   // nil for fault-free runs
	rec     Recorder          // nil = observability off (the zero-cost path)
	tw      *TranscriptWriter // nil = transcripts off; emission is coordinator-only
	ck      *ckptState        // nil = checkpoints off

	topoDigest uint64 // lazy topologyDigest cache (0 = not yet computed)

	// Struct-of-arrays node state: one parallel array per field, indexed by
	// node id. nodes holds the 16-byte StepCtx handles machines capture.
	nodes    []StepCtx
	flags    []uint8
	machines []Machine
	results  []any
	inboxOff []int32 // window into the owning shard's inbox arena
	inboxLen []int32

	// Crash-restart state, allocated only when the plan has restart rules
	// (the crashed mark itself lives in flags). roundBase is the global
	// round a node's current incarnation joined at (its local round 0);
	// incarn counts restarts, keying the incarnation's RNG stream.
	roundBase []int32
	incarn    []int32

	linkAt [][2]int32 // edge id -> local link index at (U, V); stored form only

	shards    []stepShard
	shardSize int
	workers   int

	round      int
	slot       Slot
	pulseFired bool // this round's slot resolved idle (after jamming)
	continuing bool
	alive      int
	met        Metrics

	errMu    sync.Mutex
	errNode  graph.NodeID
	firstErr error

	gate *phaseGate // nil when single-worker
}

// shardOf returns the shard owning node v.
//
//mmlint:noalloc
func (e *stepEngine) shardOf(v graph.NodeID) *stepShard {
	return &e.shards[int(v)/e.shardSize]
}

// seedOf derives node v's current RNG seed: the master derivation, or the
// incarnation's for a restarted node.
//
//mmlint:noalloc
func (e *stepEngine) seedOf(v graph.NodeID) int64 {
	if e.incarn != nil && e.incarn[v] > 0 {
		return nodeSeedAt(e.cfg.seed, v, int(e.incarn[v]))
	}
	return nodeSeed(e.cfg.seed, v)
}

// inboxOf returns node v's undelivered inbox: its window of the owning
// shard's arena. The full slice expression caps the window, so a program
// appending to an Input's Msgs reallocates instead of bleeding into the
// next recipient's window.
//
//mmlint:noalloc
func (e *stepEngine) inboxOf(v graph.NodeID) []Message {
	l := e.inboxLen[v]
	if l == 0 {
		return nil
	}
	sd := e.shardOf(v)
	off := e.inboxOff[v]
	return sd.inboxArena[off : off+l : off+l]
}

// shardAdj returns id's adjacency through the shard's single-entry memo —
// the implicit-form counterpart of the stored form's g.Adj, materializing
// AdjAppend once per (shard, node) occupancy instead of once per Send.
//
//mmlint:noalloc
func (e *stepEngine) shardAdj(sd *stepShard, id graph.NodeID) []graph.Half {
	if sd.memoNode == int32(id) {
		return sd.memoAdj
	}
	if e.imp != nil {
		// The scratch-reusing form: after each buffer's first sizing, a memo
		// rebuild allocates nothing.
		sd.memoAdj = e.imp.AdjInto(id, sd.memoAdj[:0], &sd.adjScratch)
	} else {
		sd.memoAdj = e.topo.AdjAppend(id, sd.memoAdj[:0])
	}
	sd.memoNode = int32(id)
	return sd.memoAdj
}

// disableFastForward forces the per-round path through quiescent stretches;
// tests flip it to check the fast-forward arithmetic differentially.
var disableFastForward bool

// RunStep executes one Machine per node of g — any graph.Topology form —
// until all machines halt, and returns aggregate metrics and per-node
// results. On an implicit topology the engine keeps
// only per-node state: the topology itself contributes O(1) memory, which
// is what makes 10⁷–10⁸-node runs fit.
func RunStep(g graph.Topology, program StepProgram, opts ...Option) (*Result, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.resolveMaxRounds(g)
	return runStepEngine(g, program, cfg)
}

// runStepEngine builds the engine, applies a resume checkpoint when one is
// configured, and runs the round loop from the appropriate round.
func runStepEngine(g graph.Topology, program StepProgram, cfg config) (*Result, error) {
	e, err := newStepEngine(g, program, cfg)
	if err != nil {
		return nil, err
	}
	start := 0
	if cp := cfg.resume; cp != nil {
		if err := e.restore(cp); err != nil {
			return nil, err
		}
		start = cp.Round
	}
	return e.run(start)
}

// newStepEngine compiles the fault plan, sizes the shards, and runs the
// init hook — everything up to (but not including) round 0.
func newStepEngine(g graph.Topology, program StepProgram, cfg config) (*stepEngine, error) {
	inj, err := fault.CompileFor(cfg.plan(), g, cfg.caps())
	if err != nil {
		return nil, err
	}
	n := g.N()
	workers := cfg.workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers <= 0 {
		//mmlint:nondet sizes the worker pool only; transcripts are worker-count-invariant (difftest-enforced)
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	mat, _ := g.(*graph.Graph)
	imp, _ := g.(*graph.Implicit)
	e := &stepEngine{
		topo:     g,
		mat:      mat,
		imp:      imp,
		cfg:      cfg,
		program:  program,
		inj:      inj,
		rec:      cfg.recorder(),
		tw:       cfg.transcript(),
		nodes:    make([]StepCtx, n),
		flags:    make([]uint8, n),
		machines: make([]Machine, n),
		results:  make([]any, n),
		inboxOff: make([]int32, n),
		inboxLen: make([]int32, n),
		workers:  workers,
		alive:    n,
	}
	if inj.HasRestarts() {
		e.roundBase = make([]int32, n)
		e.incarn = make([]int32, n)
	}
	if cfg.ckpt != nil {
		e.ck = newCkptState(cfg.ckpt)
	}
	if mat != nil {
		// Stored form: build the O(m) edge→link index LinkOf answers from.
		// Implicit forms skip it (LinkIndex computes per query), keeping the
		// engine's footprint independent of m.
		e.linkAt = make([][2]int32, mat.M())
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			for l, h := range mat.Adj(id) {
				if mat.Edge(int(h.EdgeID)).U == id {
					e.linkAt[h.EdgeID][0] = int32(l)
				} else {
					e.linkAt[h.EdgeID][1] = int32(l)
				}
			}
		}
	}

	e.shardSize = (n + workers - 1) / workers
	shardCount := (n + e.shardSize - 1) / e.shardSize
	e.shards = make([]stepShard, shardCount)
	for i := range e.shards {
		s := &e.shards[i]
		s.lo = i * e.shardSize
		s.hi = min(s.lo+e.shardSize, n)
		s.out = make([][]delivered, shardCount)
		s.awake = make([]int32, 0, s.hi-s.lo)
		s.idxNode, s.memoNode = -1, -1
		for v := s.lo; v < s.hi; v++ {
			s.awake = append(s.awake, int32(v))
		}
	}

	// Init hook: build every node's machine, in node order.
	for v := 0; v < n; v++ {
		sc := &e.nodes[v]
		sc.id = graph.NodeID(v)
		sc.eng = e
		e.flags[v] = flagScheduled
		if err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = nodeFailure(sc.id, r)
				}
			}()
			e.machines[v] = program(sc)
			return nil
		}(); err != nil {
			return nil, err
		}
		if e.machines[v] == nil {
			return nil, fmt.Errorf("sim: step program returned a nil machine for node %d", sc.id)
		}
		if sd := sc.shard(); len(sd.stage) > 0 || sd.chPending {
			return nil, fmt.Errorf("sim: step program for node %d sent or wrote the channel during init", sc.id)
		}
	}
	return e, nil
}

// run executes the round loop from the given round (0 for a fresh run, the
// checkpoint's round on a resume) until every machine halts or the run
// fails.
func (e *stepEngine) run(start int) (res *Result, err error) {
	n := e.topo.N()
	if rec := e.rec; rec != nil {
		rec.RunStart(n, EngineStep, e.workers, len(e.shards))
	}
	if tw := e.tw; tw != nil {
		tw.begin(n, e.cfg.seed, e.cfg.planString())
	}
	if e.workers > 1 {
		e.startWorkers()
		defer e.stopWorkers()
	}

	stepped := make([]int, 0, len(e.shards))
	awakeTotal := 0
	for i := range e.shards {
		awakeTotal += len(e.shards[i].awake)
	}
	for round := start; ; round++ {
		e.round = round
		if e.ck != nil && round > start && e.ck.due(round) {
			if err := e.writeCheckpoint(round); err != nil {
				e.recordErr(-1, fmt.Errorf("sim: checkpoint at round %d: %w", round, err))
				break
			}
		}
		// Crash-restarts due this round revive after the checkpoint capture
		// (a checkpoint at the restart round records the pre-restart state,
		// so a resume re-applies the restart deterministically) and are not
		// gated on round > start for the same reason.
		if e.roundBase != nil {
			e.reviveRestarts(round)
		}
		stepped = stepped[:0]
		for i := range e.shards {
			if len(e.shards[i].awake) > 0 {
				stepped = append(stepped, i)
			}
		}
		e.runPhase(phaseStep, stepped, awakeTotal)

		e.met.Rounds = round + 1

		// Resolve the channel slot from the per-shard write summaries.
		writers := 0
		var wid graph.NodeID
		var wpayload Payload
		for _, si := range stepped {
			s := &e.shards[si]
			if s.writers > 0 {
				writers += s.writers
				wid, wpayload = s.writerID, s.writerPayload
				s.writerPayload = nil
			}
			e.alive -= s.halts
		}
		slot := Slot{State: SlotIdle}
		if e.inj.Jammed(round + 1) {
			// A jammed slot hides any writer behind a forced collision.
			e.met.SlotsJammed++
			slot = Slot{State: SlotCollision}
		} else {
			switch {
			case writers == 0:
				e.met.SlotsIdle++
			case writers == 1:
				e.met.SlotsSuccess++
				slot = Slot{State: SlotSuccess, From: wid, Payload: wpayload}
			default:
				e.met.SlotsCollision++
				slot = Slot{State: SlotCollision}
			}
		}
		e.slot = slot
		e.pulseFired = slot.State == SlotIdle

		// Crash-stop the nodes scheduled to fail before observing round+1.
		// Their round-round sends (staged above) are still delivered;
		// messages addressed to them join the halted-drop count.
		for _, v := range e.inj.CrashesAt(round + 1) {
			if e.flags[v]&flagHalted != 0 {
				continue
			}
			// A crash-stopped node records no result: it never reached its
			// halt.
			e.flags[v] |= flagHalted | flagCrashed
			e.alive--
			e.met.Crashed++
		}

		failed := e.err() != nil
		if e.alive > 0 && !failed && round+1 > e.cfg.maxRounds {
			e.recordErr(-1, fmt.Errorf("%w: budget %d", ErrMaxRounds, e.cfg.maxRounds))
			failed = true
		}
		e.continuing = e.alive > 0 && !failed

		// Delivery stats accrue in destination shards; zero them all first
		// since only shards with pending buckets are necessarily drained.
		for i := range e.shards {
			s := &e.shards[i]
			s.msgs, s.dropped, s.faultDrops, s.delayed, s.duped = 0, 0, 0, 0, 0
			s.partDrops, s.skewed = 0, 0
		}
		e.runPhase(phaseDeliver, stepped, awakeTotal)
		for i := range e.shards {
			s := &e.shards[i]
			e.met.Messages += s.msgs
			e.met.DroppedHalted += s.dropped
			e.met.DroppedFault += s.faultDrops
			e.met.Delayed += s.delayed
			e.met.Duplicated += s.duped
			e.met.PartitionedDrop += s.partDrops
			e.met.Skewed += s.skewed
		}

		awakeTotal = 0
		for i := range e.shards {
			awakeTotal += len(e.shards[i].awake)
		}
		if e.tw != nil && e.continuing {
			e.emitRound(round)
		}
		if rec := e.rec; rec != nil {
			rec.RoundEnd(round+1, awakeTotal, slot.State, &e.met)
		}
		if !e.continuing {
			break
		}
		if awakeTotal == 0 && !disableFastForward {
			// Fully parked network, nothing staged: no machine can run until
			// a delayed delivery, a crash, a pulse, or the round budget
			// fires. Jump straight to that event, accruing the skipped
			// rounds' writer-free slots arithmetically, so quiescent
			// stretches — including a genuine wedge spinning to ErrMaxRounds
			// — cost O(1) instead of O(shards) per round while keeping
			// transcripts and Metrics bit-identical with the per-round path.
			// With a transcript installed the traced variant synthesizes the
			// skipped rounds' frames instead, so the stream stays
			// byte-identical to a per-round engine's.
			if e.tw != nil {
				round = e.fastForwardTraced(round)
			} else {
				round = e.fastForward(round)
			}
		}
	}

	if rec := e.rec; rec != nil {
		rec.RunEnd(&e.met)
	}
	res = &Result{Metrics: e.met, Results: make([]any, n)}
	copy(res.Results, e.results)
	if tw := e.tw; tw != nil {
		tw.finalFrame(&e.met, res.Results, e.err())
	}
	if err := e.err(); err != nil {
		return nil, err
	}
	return res, nil
}

// reviveRestarts applies the crash-restarts due at this round: each revived
// node is rebuilt from scratch — the init hook runs again, producing a fresh
// machine with reset protocol state, the RNG stream is re-derived for the
// new incarnation, and the round base makes its next step a local round 0 —
// exactly a fresh node joining mid-run. Only fault-crashed nodes revive; a
// node that halted normally stays halted.
func (e *stepEngine) reviveRestarts(round int) {
	for _, v := range e.inj.RestartsAt(round) {
		fl := e.flags[v]
		if fl&flagHalted == 0 || fl&flagCrashed == 0 {
			continue
		}
		e.incarn[v]++
		e.roundBase[v] = int32(round)
		e.flags[v] = flagScheduled
		e.results[v] = nil
		e.inboxLen[v] = 0
		sd := e.shardOf(graph.NodeID(v))
		if sd.rngDraws != nil {
			// Reset the stream to position 0; the next Rand derives the
			// incarnation's seed (incarn is already bumped).
			i := int(v) - sd.lo
			sd.rngWord[i], sd.rngDraws[i] = 0, 0
		}
		sc := &e.nodes[v]
		if err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = nodeFailure(sc.id, r)
				}
			}()
			e.machines[v] = e.program(sc)
			return nil
		}(); err != nil {
			e.recordErr(sc.id, err)
			e.flags[v] = flagHalted
			continue
		}
		if e.machines[v] == nil {
			e.recordErr(sc.id, fmt.Errorf("sim: step program returned a nil machine for node %d", sc.id))
			e.flags[v] = flagHalted
			continue
		}
		sd.awake = append(sd.awake, int32(v))
		e.alive++
		e.met.Restarted++
	}
}

// emitRound streams one executed round's transcript frame: the shards'
// touched lists name every inbox delivered this round; they are gathered,
// sorted, digested, and cleared coordinator-side, keeping transcript I/O
// (and its allocations) out of the //mmlint:noalloc delivery phase. With no
// writer installed the lists are cleared inside the delivery phase itself
// and this function is never reached.
func (e *stepEngine) emitRound(round int) {
	tw := e.tw
	f := RoundFrame{Round: round + 1, Slot: e.slot.State, Alive: e.alive, Met: e.met}
	if e.slot.State == SlotSuccess {
		f.From = e.slot.From
		f.SlotDigest = payloadDigest(e.slot.Payload)
	}
	tw.touched = tw.touched[:0]
	for i := range e.shards {
		sd := &e.shards[i]
		tw.touched = append(tw.touched, sd.touched...)
		sd.touched = sd.touched[:0]
	}
	slices.Sort(tw.touched)
	f.Nodes = tw.nodes[:0]
	for _, v := range tw.touched {
		box := e.inboxOf(graph.NodeID(v))
		if len(box) == 0 {
			continue
		}
		var d uint64
		d, tw.scratch = inboxDigest(box, tw.scratch)
		f.Nodes = append(f.Nodes, NodeDigest{Node: graph.NodeID(v), Digest: d})
	}
	tw.nodes = f.Nodes
	tw.WriteRound(&f)
}

// fastForward is the quiescent-round fast-forward, called at the bottom of
// iteration r when every live node is parked and no message is staged. It
// returns the iteration to resume per-round execution before (the caller's
// round++ lands on it); returning r resumes normally at r+1.
//
// With the network fully parked, a later iteration q can only observe:
// delayed/duplicated messages due at round q+1 (deposited by iteration q),
// crashes scheduled at q+1 (applied by iteration q), a pulse waking
// SleepUntilPulse-parked nodes (the first slot from q+1 on resolving idle),
// or the round budget (iteration maxRounds records ErrMaxRounds). Every
// iteration before the earliest such event just resolves a writer-free slot
// — idle, or a jammed collision — so the engine skips them and accrues
// those slots arithmetically.
//
//mmlint:noalloc
func (e *stepEngine) fastForward(r int) int {
	R := e.ffTarget(r)
	if R <= r+1 {
		return r
	}
	// Iterations r+1 .. R-1 resolve slots r+2 .. R, all writer-free.
	skipped := int64(R - r - 1)
	jammed := e.inj.CountJammed(r+2, R)
	e.met.SlotsJammed += jammed
	e.met.SlotsIdle += skipped - jammed
	if rec := e.rec; rec != nil {
		rec.FastForward(r+2, R)
	}
	return R - 1
}

// ffTarget computes the fast-forward target: the earliest iteration after r
// that can change any state — and must therefore execute per-round — with
// everything before it writer-free. Shared by the plain and traced forms.
//
//mmlint:noalloc
func (e *stepEngine) ffTarget(r int) int {
	// The budget fails at iteration maxRounds (round+1 > maxRounds there).
	R := e.cfg.maxRounds
	// Delayed/duplicated messages due at round p are deposited by
	// iteration p-1.
	for i := range e.shards {
		s := &e.shards[i]
		if s.pendingN == 0 {
			continue
		}
		//mmlint:commutative min reduction over due rounds; order-free
		for p := range s.pending {
			if p-1 < R {
				R = p - 1
			}
		}
	}
	// Crashes at round c are applied by iteration c-1; iteration r already
	// applied round r+1's.
	if c, ok := e.inj.NextCrashAfter(r + 1); ok && c-1 < R {
		R = c - 1
	}
	// Restarts at round q revive at the top of iteration q, which must
	// therefore execute; iteration r already applied round r's.
	if q, ok := e.inj.NextRestartAfter(r); ok && q < R {
		R = q
	}
	if R > r+1 && e.hasPulseSleepers() {
		// Parked pulse waiters wake at the first non-jammed slot (writers
		// are impossible while everyone is parked); without jam rules that
		// is the very next one, and no rounds are skipped at all.
		if s, ok := e.inj.NextClearSlot(r+2, R); ok && s-1 < R {
			R = s - 1
		}
	}
	// A pending checkpoint round must land on an executed iteration top, so
	// the skip may not jump past it — checkpointing mid-fast-forward means
	// clamping the forward jump to the capture point.
	if e.ck != nil {
		if q, ok := e.ck.nextAfter(r); ok && q < R {
			R = q
		}
	}
	return R
}

// fastForwardTraced is fastForward with a transcript installed: the skipped
// rounds' frames are synthesized one by one — slot resolution per skipped
// round, incremental metrics — so the emitted stream is byte-identical to
// an engine that executed every round. The per-round cost this reintroduces
// is the price of observation, paid only when a transcript is on.
func (e *stepEngine) fastForwardTraced(r int) int {
	R := e.ffTarget(r)
	if R <= r+1 {
		return r
	}
	for s := r + 2; s <= R; s++ {
		state := SlotIdle
		if e.inj.Jammed(s) {
			e.met.SlotsJammed++
			state = SlotCollision
		} else {
			e.met.SlotsIdle++
		}
		e.met.Rounds = s
		f := RoundFrame{Round: s, Slot: state, Alive: e.alive, Met: e.met}
		e.tw.WriteRound(&f)
	}
	if rec := e.rec; rec != nil {
		rec.FastForward(r+2, R)
	}
	return R - 1
}

// hasPulseSleepers reports whether any node is parked awaiting the pulse,
// compacting entries invalidated by an early message wake or a crash.
//
//mmlint:noalloc
func (e *stepEngine) hasPulseSleepers() bool {
	any := false
	for i := range e.shards {
		s := &e.shards[i]
		if len(s.pulseSleepers) == 0 {
			continue
		}
		kept := s.pulseSleepers[:0]
		for _, v := range s.pulseSleepers {
			if fl := e.flags[v]; fl&flagHalted == 0 && fl&flagPulseWake != 0 {
				kept = append(kept, v)
			}
		}
		s.pulseSleepers = kept
		any = any || len(kept) > 0
	}
	return any
}

// runPhase executes one phase over the shards, inline when the round is
// small or the engine single-threaded, on the persistent worker pool behind
// the phase gate otherwise (the coordinator takes shard 0 itself).
//
//mmlint:noalloc
func (e *stepEngine) runPhase(phase int8, stepped []int, awakeTotal int) {
	if e.gate == nil || awakeTotal < inlineThreshold {
		switch phase {
		case phaseStep:
			for _, si := range stepped {
				e.phaseShard(phase, si)
			}
		case phaseDeliver:
			for d := range e.shards {
				e.phaseShard(phase, d)
			}
		}
		return
	}
	e.gate.release(phase)
	e.phaseShard(phase, 0)
	if rec := e.rec; rec != nil {
		// The coordinator's barrier wait: its own shard is done, the round
		// cannot advance until the last worker arrives.
		t0 := rec.BeginPhase(PhaseBarrier, 0)
		e.gate.wait()
		rec.EndPhase(PhaseBarrier, 0, e.round, t0)
		return
	}
	e.gate.wait()
}

// phaseShard runs one shard's slice of a phase, skipping shards the phase
// has no work for. Shards that do run are bracketed by the recorder's phase
// span when observability is on; skipped shards record nothing.
//
//mmlint:noalloc
func (e *stepEngine) phaseShard(phase int8, i int) {
	switch phase {
	case phaseStep:
		if len(e.shards[i].awake) > 0 {
			if rec := e.rec; rec != nil {
				t0 := rec.BeginPhase(PhaseStep, i)
				e.stepShard(&e.shards[i])
				rec.EndPhase(PhaseStep, i, e.round, t0)
				return
			}
			e.stepShard(&e.shards[i])
		}
	case phaseDeliver:
		if e.needsDelivery(i) {
			if rec := e.rec; rec != nil {
				t0 := rec.BeginPhase(PhaseDeliver, i)
				e.deliverShard(i)
				rec.EndPhase(PhaseDeliver, i, e.round, t0)
				return
			}
			e.deliverShard(i)
		}
	}
}

// needsDelivery reports whether a destination shard has anything to do in
// the delivery phase: fresh buckets staged for it, delayed messages due
// this round, or pulse-parked nodes to wake. Shared by the inline and
// worker paths, so empty shards are never drained on either.
//
//mmlint:noalloc
func (e *stepEngine) needsDelivery(d int) bool {
	sd := &e.shards[d]
	if sd.pendingN > 0 && len(sd.pending[e.round+1]) > 0 {
		return true
	}
	if e.pulseFired && len(sd.pulseSleepers) > 0 {
		return true
	}
	for si := range e.shards {
		if len(e.shards[si].out[d]) > 0 {
			return true
		}
	}
	return false
}

// startWorkers brings up the persistent worker pool: one goroutine per
// shard except shard 0, which the coordinator runs itself between releasing
// and waiting on the gate.
func (e *stepEngine) startWorkers() {
	e.gate = newPhaseGate(len(e.shards) - 1)
	for i := 1; i < len(e.shards); i++ {
		go e.workerLoop(i)
	}
}

// workerLoop is one persistent worker: woken by the gate for each phase, it
// runs its shard's slice and reports completion, until told to exit.
func (e *stepEngine) workerLoop(shard int) {
	rec := e.rec
	var epoch uint32
	for {
		var t0 int64
		if rec != nil {
			t0 = rec.BeginPhase(PhaseBarrier, shard)
		}
		epoch = e.gate.await(shard-1, epoch)
		phase := e.gate.phase
		if rec != nil {
			// Everything since the previous finish — the coordinator's
			// sequential section plus the gate wait — is time this worker
			// spent barred from shard work.
			rec.EndPhase(PhaseBarrier, shard, e.round, t0)
		}
		if phase != phaseExit {
			e.phaseShard(phase, shard)
		}
		e.gate.finish()
		if phase == phaseExit {
			return
		}
	}
}

func (e *stepEngine) stopWorkers() {
	if e.gate == nil {
		return
	}
	e.gate.release(phaseExit)
	e.gate.wait()
	e.gate = nil
}

// stepShard runs the compute phase for one shard: step every awake machine,
// stage its sends into the per-destination buckets, and summarize channel
// writes and halts. A machine panic is recorded against its node and halts
// that node; the rest of the round still runs everywhere, and the run aborts
// at the round's end with the lowest-node error.
//
//mmlint:noalloc
func (e *stepEngine) stepShard(s *stepShard) {
	defer func() {
		// Machine panics are handled batch-wise in stepNodes; this catches
		// engine-infrastructure failures in the phase itself, which would
		// otherwise kill a bare worker goroutine.
		if r := recover(); r != nil {
			e.recordErr(1<<31-1, fmt.Errorf("sim: step phase of shard [%d,%d) panicked: %v", s.lo, s.hi, r))
		}
	}()
	s.writers = 0
	s.halts = 0
	s.next = s.next[:0]
	for i := 0; i < len(s.awake); {
		i = e.stepNodes(s, i)
	}
	s.awake, s.next = s.next, s.awake
}

// stepNodes steps s.awake[start:] until the batch completes or a machine
// panics: the happy path pays for one deferred recover per batch instead of
// one per node step. On a panic the failing node's error is recorded, its
// sends and channel write staged before the panic are still committed, the
// node halts, and the index after it is returned so the caller resumes the
// batch.
//
//mmlint:noalloc
func (e *stepEngine) stepNodes(s *stepShard, start int) (next int) {
	i := start
	defer func() {
		if r := recover(); r != nil {
			v := s.awake[i]
			e.recordErr(graph.NodeID(v), nodeFailure(graph.NodeID(v), r))
			e.inboxLen[v] = 0
			e.commitNode(s, graph.NodeID(v))
			e.flags[v] |= flagHalted
			s.halts++
			next = i + 1
		}
	}()
	round, slot := e.round, e.slot
	for ; i < len(s.awake); i++ {
		v := s.awake[i]
		fl := e.flags[v]
		if fl&flagHalted != 0 {
			// Crash-stopped between being scheduled and this round.
			continue
		}
		e.flags[v] = fl &^ (flagScheduled | flagAsleep | flagPulseWake)
		in := Input{Round: round, Msgs: e.inboxOf(graph.NodeID(v)), Slot: slot}
		if e.roundBase != nil && e.roundBase[v] != 0 {
			// A restarted incarnation counts rounds from its revival: its
			// first step is a local round 0 — no messages, a zero slot —
			// exactly what a fresh node's machine sees.
			in.Round = round - int(e.roundBase[v])
			if in.Round == 0 {
				in.Msgs, in.Slot = nil, Slot{}
			}
		}
		halt := e.machines[v].Step(in)
		e.inboxLen[v] = 0
		if s.chPending || len(s.stage) > 0 {
			e.commitNode(s, graph.NodeID(v))
		}
		switch {
		case halt:
			e.flags[v] |= flagHalted
			e.results[v] = e.machines[v].Result()
			s.halts++
		case e.flags[v]&flagAsleep != 0:
			// Parked until a message (or, with pulseWake, an idle slot)
			// wakes it.
			if e.flags[v]&flagPulseWake != 0 {
				s.pulseSleepers = append(s.pulseSleepers, v)
			}
		default:
			e.flags[v] |= flagScheduled
			s.next = append(s.next, v)
		}
	}
	return i
}

// commitNode commits the stepping node's staged sends and channel write —
// accumulated in its shard's scratch — into the destination buckets and
// write summary, clearing the duplicate-send guard link by link.
//
//mmlint:noalloc
func (e *stepEngine) commitNode(s *stepShard, id graph.NodeID) {
	if s.chPending {
		s.writers++
		s.writerID = id
		s.writerPayload = s.chWrite
		s.chPending, s.chWrite = false, nil
	}
	for _, o := range s.stage {
		s.sentBits[o.link>>6] &^= uint64(1) << (o.link & 63)
		d := int(o.to) / e.shardSize
		s.out[d] = append(s.out[d], delivered{to: o.to, from: id, edgeID: o.edgeID, payload: o.payload})
	}
	s.stage = s.stage[:0]
}

// deliverShard runs the delivery phase for one destination shard: wake
// pulse-parked nodes if the pulse fired, then land the round's messages —
// delayed deliveries due now first, then every source shard's bucket in
// shard order — in the shard's inbox arena: survivors are gathered in
// arrival order, counted per recipient, and laid out as one contiguous
// window per recipient, all in buffers reused round after round (steady-
// state delivery allocates nothing). Multi-message
// inboxes are sorted by (sender, edge id) and sleeping recipients woken.
//
//mmlint:noalloc
func (e *stepEngine) deliverShard(d int) {
	sd := &e.shards[d]
	defer func() {
		if r := recover(); r != nil {
			e.recordErr(1<<31-1, fmt.Errorf("sim: delivery to shard %d panicked: %v", d, r))
		}
	}()
	deliverRound := e.round + 1
	if e.pulseFired && len(sd.pulseSleepers) > 0 {
		// The slot resolved idle: wake this shard's pulse-parked nodes so
		// they observe the pulse next round. Entries whose pulseWake flag is
		// gone were woken early by a message and already stepped since.
		for _, v := range sd.pulseSleepers {
			fl := e.flags[v]
			if fl&flagHalted != 0 || fl&flagPulseWake == 0 {
				continue
			}
			fl &^= flagPulseWake
			if fl&flagScheduled == 0 {
				fl = (fl | flagScheduled) &^ flagAsleep
				sd.awake = append(sd.awake, v)
			}
			e.flags[v] = fl
		}
		sd.pulseSleepers = sd.pulseSleepers[:0]
	}

	// Pass A: route everything due this round through the fault hook,
	// collecting survivors in arrival order (late deliveries first, then
	// source shards in shard order).
	sd.arrivals = sd.arrivals[:0]
	if late := sd.takePending(deliverRound); late != nil {
		for i := range late {
			m := &late[i]
			if e.flags[m.to]&flagHalted != 0 {
				if e.continuing {
					sd.dropped++
				}
				continue
			}
			sd.arrivals = append(sd.arrivals, *m)
		}
		sd.recyclePending(late)
	}
	msgFaults := e.inj.HasMsgFaults()
	for si := range e.shards {
		bucket := e.shards[si].out[d]
		if len(bucket) == 0 {
			continue
		}
		for i := range bucket {
			m := &bucket[i]
			sd.msgs++
			if msgFaults && !e.applyMsgFaults(sd, m, deliverRound) {
				m.payload = nil
				continue
			}
			if e.flags[m.to]&flagHalted != 0 {
				if e.continuing {
					sd.dropped++
				}
				m.payload = nil
				continue
			}
			sd.arrivals = append(sd.arrivals, *m)
			m.payload = nil
		}
		e.shards[si].out[d] = bucket[:0]
	}
	if len(sd.arrivals) == 0 {
		return
	}

	// Pass B: per-recipient counts, then the arena carved into per-node
	// windows filled in arrival order. counts doubles as the fill cursor
	// and is restored to zero on the way out.
	if sd.counts == nil {
		sd.ensureCounts()
	}
	arena := sd.arenaFor(len(sd.arrivals))
	for i := range sd.arrivals {
		t := int(sd.arrivals[i].to) - sd.lo
		if sd.counts[t] == 0 {
			sd.touched = append(sd.touched, int32(sd.arrivals[i].to))
		}
		sd.counts[t]++
	}
	off := int32(0)
	for _, v := range sd.touched {
		t := int(v) - sd.lo
		n := sd.counts[t]
		e.inboxOff[v] = off
		e.inboxLen[v] = n
		sd.counts[t] = off // becomes the node's next free index below
		off += n
	}
	for i := range sd.arrivals {
		m := &sd.arrivals[i]
		t := int(m.to) - sd.lo
		arena[sd.counts[t]] = Message{From: m.from, EdgeID: int(m.edgeID), Payload: m.payload}
		sd.counts[t]++
		m.payload = nil // release the scratch list's reference
	}
	for _, v := range sd.touched {
		sd.counts[int(v)-sd.lo] = 0
		if box := e.inboxOf(graph.NodeID(v)); len(box) > 1 {
			sortInbox(box)
		}
		// Wake the recipient, in first-arrival order.
		fl := e.flags[v]
		if fl&flagScheduled == 0 {
			e.flags[v] = (fl | flagScheduled) &^ flagAsleep
			sd.awake = append(sd.awake, v)
		}
	}
	if e.tw == nil {
		// With a transcript on, the coordinator digests and clears the
		// touched lists after the phase (emitRound); the hot path never
		// does transcript work.
		sd.touched = sd.touched[:0]
	}
}

// ensureCounts allocates the shard's per-recipient count array; called once
// per shard, on its first non-empty delivery.
func (sd *stepShard) ensureCounts() {
	sd.counts = make([]int32, sd.hi-sd.lo)
}

// applyMsgFaults routes one staged message through the injector. A false
// return means the message must not be delivered this round: destroyed, or
// deferred into the pending buffer. Duplicates are scheduled for later and
// the original still delivered now; a skewed sender's messages are deferred
// like delays, modeling its slow clock.
func (e *stepEngine) applyMsgFaults(sd *stepShard, m *delivered, deliverRound int) bool {
	switch fate, lag := e.inj.MsgFate(int(m.edgeID), m.from, m.to, deliverRound); fate {
	case fault.DropMsg:
		sd.faultDrops++
		return false
	case fault.PartitionDrop:
		sd.partDrops++
		return false
	case fault.DelayMsg, fault.DupMsg, fault.SkewMsg:
		if sd.pending == nil {
			sd.pending = make(map[int][]delivered)
		}
		key := deliverRound + lag
		lst, ok := sd.pending[key]
		if !ok && len(sd.pendingFree) > 0 {
			last := len(sd.pendingFree) - 1
			lst, sd.pendingFree = sd.pendingFree[last], sd.pendingFree[:last]
		}
		sd.pending[key] = append(lst, *m)
		sd.pendingN++
		switch fate {
		case fault.DelayMsg:
			sd.delayed++
			return false
		case fault.SkewMsg:
			sd.skewed++
			return false
		}
		sd.duped++
	}
	return true
}

// takePending removes and returns the pending bucket due at deliverRound,
// or nil.
//
//mmlint:noalloc
func (sd *stepShard) takePending(deliverRound int) []delivered {
	if sd.pendingN == 0 {
		return nil
	}
	late := sd.pending[deliverRound]
	if len(late) == 0 {
		return nil
	}
	delete(sd.pending, deliverRound)
	sd.pendingN -= len(late)
	return late
}

// recyclePending returns a drained pending bucket's backing array to the
// shard's free list, clearing its payload references.
//
//mmlint:noalloc
func (sd *stepShard) recyclePending(late []delivered) {
	clear(late)
	sd.pendingFree = append(sd.pendingFree, late[:0])
}

// sortInbox orders one inbox by (sender, edge id) — the guaranteed delivery
// order.
//
//mmlint:noalloc
func sortInbox(box []Message) {
	slices.SortFunc(box, func(a, b Message) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.EdgeID, b.EdgeID)
	})
}

// recordErr keeps the lowest-node error of the failing round, so the
// reported failure is independent of the worker count — errors compete only
// within one round, because the run aborts at its end. Engine-level errors
// record as node -1; per-shard
// infrastructure failures as node MaxInt32 (never outranking a node).
func (e *stepEngine) recordErr(node graph.NodeID, err error) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.firstErr == nil || node < e.errNode {
		e.errNode, e.firstErr = node, err
	}
}

func (e *stepEngine) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// nodeFailure turns a recovered Step/init panic into the run's error: a
// Failf as "sim: node <id>: <message>", anything else as "sim: node <id>
// panicked: <value>".
func nodeFailure(id graph.NodeID, r any) error {
	if f, ok := r.(failError); ok {
		return fmt.Errorf("sim: node %d: %w", id, f.err)
	}
	return fmt.Errorf("sim: node %d panicked: %v", id, r)
}
