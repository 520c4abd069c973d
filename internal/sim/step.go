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
// A round with enough awake nodes hands each phase to persistent workers,
// one buffered channel each and a WaitGroup counting their arrivals;
// smaller rounds run inline on the coordinator, and shards with nothing to
// do in a phase are skipped by a shared need-check. All buffers (inbox
// arenas, outboxes, awake lists) are reused across rounds, so a
// steady-state round allocates nothing beyond what machines themselves
// allocate. Machines that have nothing to do until a message arrives call
// StepCtx.Sleep, and a machine that also waits for
// the channel barrier's pulse or for a known round calls SleepUntilPulse or
// SleepUntilRound; combined with the awake lists this makes the per-round
// cost proportional to the number of active nodes, not n. When every live
// node is parked the engine does not even spin empty rounds: it
// fast-forwards straight to the next event that can wake a machine — a due
// delivery, a crash or restart, a pulse, a timed wake (fastForward below) —
// so fully quiescent stretches cost zero.
//
// # Memory layout
//
// Per-node bookkeeping is struct-of-arrays, sized for 10⁸-node censuses:
// the engine holds one parallel array per field — a one-byte flags word
// (asleep/pulseWake/scheduled/halted/crashed), the Machine interface, the
// recorded result, and the (offset, length) of the node's window in its
// shard's inbox arena — instead of a fat per-node struct. The StepCtx a
// machine captures is a 16-byte handle (node id, shard index, engine
// pointer); every StepCtx method resolves per-node state through the
// arrays. Round-scoped scratch that the old layout kept per node (staged
// sends, the channel write, the duplicate-send guard, the RNG generator,
// the adjacency memo) lives once per shard:
// shards are single-threaded within a phase and machines step one at a
// time, so one node's scratch can be recycled for the next. Per-node RNG
// state is the raw SplitMix64 (state word, draw count) pair in two lazily
// allocated per-shard arrays — see rng.go — not a boxed generator per node.
//
// Ownership rules this layout imposes (all were already part of the
// documented Machine contract, now load-bearing): an Input and its Msgs are
// valid only during the Step call they are passed to; the *rand.Rand
// returned by StepCtx.Rand is valid only during the current Step (or init)
// call and must be re-fetched each time, never stored; adjacency slices
// returned by internal helpers are per-shard memos. The mmlint ctxescape
// analyzer polices StepCtx-derived state escaping a machine.
//
// The engine reads the topology through the graph.Topology interface alone
// and never asks which form it runs on: Degree, Send, Link and LinkOf all
// answer from the shard's single-entry adjacency memo, which
// Topology.AdjView fills — the stored form's own slice, or an implicit
// form's list computed into the shard's scratch.
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
	"sync/atomic"

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

// Per-node scheduler flags, packed into one byte of stepEngine.flags.
const (
	flagAsleep    uint8 = 1 << iota // set by Sleep, cleared before every Step
	flagPulseWake                   // set by SleepUntilPulse: also wake on an idle slot
	flagScheduled                   // already on some shard's awake list for the next round
	flagHalted
	flagCrashed   // fault-crashed (revivable by a restart rule), not a normal halt
	flagRoundWake // set by SleepUntilRound: also wake at the shard's wakeAt round
)

// StepCtx is a node's handle to the network. It is a 16-byte (id, shard,
// engine) triple — the shard index fills the padding after the id — and all
// per-node state lives in the engine's parallel arrays and the shard's
// scratch. All methods must be called only from the node's Machine during
// Step (or from its StepProgram during construction, for the read-only
// ones). Methods panic on model violations; a panic aborts the run with an
// error naming the node.
type StepCtx struct {
	id       graph.NodeID
	shardIdx int32 // index of the owning shard in eng.shards
	eng      *stepEngine
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
	return &c.eng.shards[c.shardIdx]
}

// Adj returns this node's incident links sorted by ascending weight, as a
// slice the machine may keep (Topology.Adj). On an implicit topology every
// call allocates the list; machines on hot paths should capture it once or
// use Degree/Send/LinkOf, which read the shard's adjacency memo instead.
func (c *StepCtx) Adj() []graph.Half { return c.eng.topo.Adj(c.id) }

// Degree returns the number of incident links.
func (c *StepCtx) Degree() int { return len(c.eng.shardAdj(c.shard(), c.id)) }

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

// LinkOf returns the local link index of the given edge id. It answers
// from the shard's adjacency memo on every topology form — a linear scan,
// or a weight-keyed binary search at high degree — so a node resolving its
// whole inbox pays one memo fill, not one topology query per message.
func (c *StepCtx) LinkOf(edgeID int) int {
	adj := c.eng.shardAdj(c.shard(), c.id)
	if edgeID >= 0 && edgeID < c.eng.topo.M() {
		if len(adj) < linkIndexThreshold {
			for l := range adj {
				if adj[l].EdgeID == int32(edgeID) {
					return l
				}
			}
		} else {
			// Adjacency is sorted by ascending, pairwise-distinct weight:
			// binary-search the edge's weight.
			w := c.eng.topo.Edge(edgeID).Weight
			i, ok := slices.BinarySearchFunc(adj, w, func(h graph.Half, t graph.Weight) int { return cmp.Compare(h.Weight, t) })
			if ok && adj[i].EdgeID == int32(edgeID) {
				return i
			}
		}
	}
	panic(fmt.Sprintf("sim: node %d has no link with edge id %d", c.id, edgeID))
}

// linkIndexThreshold: below this degree LinkOf's linear memo scan beats a
// binary search of the edge's weight.
const linkIndexThreshold = 16

// Link returns the local link index leading to the given neighbor: a scan
// of the shard's adjacency memo.
func (c *StepCtx) Link(to graph.NodeID) (int, bool) {
	for l, h := range c.eng.shardAdj(c.shard(), c.id) {
		if h.To == to {
			return l, true
		}
	}
	return 0, false
}

// Send queues a message on the link with the given local index for delivery
// at the start of the next round. At most one message may be sent per link
// per round.
func (c *StepCtx) Send(link int, p Payload) {
	sd := c.shard()
	adj := c.eng.shardAdj(sd, c.id)
	if link < 0 || link >= len(adj) {
		panic(fmt.Sprintf("sim: node %d send on link %d of %d", c.id, link, len(adj)))
	}
	h := adj[link]
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
// O(n·rounds). A protocol synchronized by the §7.1 barrier parks with
// SleepUntilPulse instead, and one synchronized by a known round with
// SleepUntilRound. Sleeping with no message ever due wedges the protocol;
// the engine detects the fully quiescent case and fails the run.
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

// SleepUntilRound parks this node like Sleep, but additionally wakes it at
// the start of its round r (Round's numbering, so a restarted node counts
// from its revival), whichever comes first. It is the sparse-activation
// primitive for protocols synchronized by a precomputed round count: a node
// that will act without input only at known rounds parks between them
// instead of stepping through every idle round. A node woken by a message
// before r is stepped normally, and is not woken at r unless it parks for r
// again. r must be later than the current round; a run that checkpoints
// while a node is parked this way fails at the capture.
func (c *StepCtx) SleepUntilRound(r int) {
	now := c.Round()
	if r <= now {
		panic(fmt.Sprintf("sim: node %d parked until round %d in round %d", c.id, r, now))
	}
	c.eng.flags[c.id] |= flagAsleep | flagRoundWake
	c.shard().parkUntil(c.id, c.eng.round+r-now)
}

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

	// Nodes of this shard parked by SleepUntilRound, bucketed by the global
	// round they wake in; the delivery phase before that round wakes them.
	// wakeAt (indexed by node-lo) is each node's latest requested wake. An
	// entry is stale — an early message, a crash, a restart or a later park
	// left it behind — unless its node is still parked with roundWake set and
	// wakeAt matches. Drained buckets are recycled through timedFree. All
	// three are allocated on the shard's first timed park.
	timed     map[int][]int32
	timedFree [][]int32
	wakeAt    []int

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

	// Single-entry adjacency memo keyed by node id (Degree/Send/Link/LinkOf),
	// rebuilt only when a different node of the shard needs it.
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

// parkUntil files node v in the bucket of global round wake. A node that
// parks again for the wake it already holds keeps its entry: that bucket is
// drained only by the delivery phase before wake, which has not run yet.
func (sd *stepShard) parkUntil(v graph.NodeID, wake int) {
	if sd.wakeAt == nil {
		sd.wakeAt = make([]int, sd.hi-sd.lo)
		sd.timed = make(map[int][]int32)
	}
	i := int(v) - sd.lo
	if sd.wakeAt[i] == wake {
		return
	}
	sd.wakeAt[i] = wake
	lst, ok := sd.timed[wake]
	if !ok && len(sd.timedFree) > 0 {
		last := len(sd.timedFree) - 1
		lst, sd.timedFree = sd.timedFree[last], sd.timedFree[:last]
	}
	sd.timed[wake] = append(lst, int32(v))
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
	// steps them itself rather than waking the worker pool. A fanned-out
	// phase wakes every worker and waits for each, and the cheapest step
	// pays that back from 2,048–4,096 nodes: a one-send relay on a ring,
	// every node stepping every round, always fanned out, ran at 2 workers
	// 0.95× as fast as at 1 on 1,024 nodes, 0.90× on 2,048, 1.09× on
	// 4,096, 1.29× on 8,192 and 1.44× on 16,384 (2-vCPU host; medians of 6
	// passes, each the best of 7 runs of 400 rounds, that spread ±0.2). At
	// 256, the §6 MST plus §5 sum on random:512,1024 took 1.6–1.8× as long
	// at 2 workers as at 1, because most of its rounds have 256–512 awake
	// nodes.
	inlineThreshold = 2048
)

type stepEngine struct {
	topo    graph.Topology
	cfg     config          // resolved by runStepEngine
	program StepProgram     // the init hook, kept for crash-restart revival
	inj     *fault.Injector // nil for fault-free runs
	ck      *ckptState      // nil = checkpoints off

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

	shards    []stepShard
	shardSize int

	round      int
	slot       Slot
	pulseFired bool // this round's slot resolved idle (after jamming)
	continuing bool
	alive      int
	met        Metrics

	errMu    sync.Mutex
	errNode  graph.NodeID
	firstErr error
	failed   atomic.Bool // set with firstErr; the round loop's lock-free check

	work    []chan int8    // shard i+1's worker receives phases on work[i]; nil when single-worker
	arrived sync.WaitGroup // workers yet to finish the fanned-out phase
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
// shard's arena.
//
//mmlint:noalloc
func (e *stepEngine) inboxOf(v graph.NodeID) []Message {
	return e.inboxIn(e.shardOf(v), v)
}

// inboxIn is inboxOf for a caller that already holds v's shard sd. The full
// slice expression caps the window, so a program appending to an Input's
// Msgs reallocates instead of bleeding into the next recipient's window.
//
//mmlint:noalloc
func (e *stepEngine) inboxIn(sd *stepShard, v graph.NodeID) []Message {
	l := e.inboxLen[v]
	if l == 0 {
		return nil
	}
	off := e.inboxOff[v]
	return sd.inboxArena[off : off+l : off+l]
}

// shardAdj returns id's adjacency through the shard's single-entry memo,
// filled by Topology.AdjView with the shard's scratch: one fill per
// (shard, node) occupancy, allocation-free once the scratch is sized, on
// every topology form.
//
//mmlint:noalloc
func (e *stepEngine) shardAdj(sd *stepShard, id graph.NodeID) []graph.Half {
	if sd.memoNode != int32(id) {
		sd.memoAdj = e.topo.AdjView(id, &sd.adjScratch)
		sd.memoNode = int32(id)
	}
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
	return runStepEngine(g, program, cfg)
}

// runStepEngine resolves the defaults of every setting no option gave, builds
// the engine, applies a resume checkpoint when one is configured, and runs
// the round loop from the appropriate round.
func runStepEngine(g graph.Topology, program StepProgram, cfg config) (*Result, error) {
	if !cfg.faultsSet {
		cfg.faults = DefaultFaults
	}
	if cfg.maxRounds <= 0 {
		cfg.maxRounds = DefaultMaxRounds
	}
	if cfg.maxRounds <= 0 {
		// Generous above any algorithm in this module: all are
		// O(n · polylog n) rounds at worst.
		cfg.maxRounds = 200*g.N() + 20_000
	}
	if cfg.workers <= 0 {
		cfg.workers = DefaultWorkers
	}
	if cfg.workers <= 0 {
		//mmlint:nondet sizes the worker pool only; transcripts are worker-count-invariant (difftest-enforced)
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	cfg.workers = max(min(cfg.workers, g.N()), 1)
	if cfg.rec == nil {
		cfg.rec = DefaultRecorder
	}
	if cfg.tw == nil {
		cfg.tw = DefaultTranscript
	}
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
	// Clock skew exists only under the §7.1 synchronizer.
	inj, err := fault.CompileFor(cfg.faults, g, fault.Caps{Skew: cfg.sync})
	if err != nil {
		return nil, err
	}
	n := g.N()
	e := &stepEngine{
		topo:     g,
		cfg:      cfg,
		program:  program,
		inj:      inj,
		nodes:    make([]StepCtx, n),
		flags:    make([]uint8, n),
		machines: make([]Machine, n),
		results:  make([]any, n),
		inboxOff: make([]int32, n),
		inboxLen: make([]int32, n),
		alive:    n,
	}
	if inj.HasRestarts() {
		e.roundBase = make([]int32, n)
		e.incarn = make([]int32, n)
	}
	if cfg.ckpt != nil {
		e.ck = newCkptState(cfg.ckpt)
	}
	e.shardSize = (n + cfg.workers - 1) / cfg.workers
	shardCount := (n + e.shardSize - 1) / e.shardSize
	e.shards = make([]stepShard, shardCount)
	for i := range e.shards {
		s := &e.shards[i]
		s.lo = i * e.shardSize
		s.hi = min(s.lo+e.shardSize, n)
		s.out = make([][]delivered, shardCount)
		s.awake = make([]int32, 0, s.hi-s.lo)
		s.memoNode = -1
		for v := s.lo; v < s.hi; v++ {
			s.awake = append(s.awake, int32(v))
		}
	}

	// Init hook: build every node's machine, in node order.
	for v := 0; v < n; v++ {
		sc := &e.nodes[v]
		sc.id = graph.NodeID(v)
		sc.shardIdx = int32(v / e.shardSize)
		sc.eng = e
		e.flags[v] = flagScheduled
		if err := e.build(sc.id); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// build runs the init hook for node v, as a fresh run does and a restart
// does again: the hook must return a machine without panicking, and must not
// send or write the channel. Anything it staged is left in the shard's
// scratch for the caller to commit or discard.
func (e *stepEngine) build(v graph.NodeID) (err error) {
	sc := &e.nodes[v]
	defer func() {
		if r := recover(); r != nil {
			err = nodeFailure(v, r)
		}
	}()
	e.machines[v] = e.program(sc)
	if e.machines[v] == nil {
		return fmt.Errorf("sim: step program returned a nil machine for node %d", v)
	}
	if sd := sc.shard(); len(sd.stage) > 0 || sd.chPending {
		return fmt.Errorf("sim: step program for node %d sent or wrote the channel during init", v)
	}
	return nil
}

// run executes the round loop from the given round (0 for a fresh run, the
// checkpoint's round on a resume) until every machine halts or the run
// fails.
func (e *stepEngine) run(start int) (res *Result, err error) {
	n := e.topo.N()
	if rec := e.cfg.rec; rec != nil {
		rec.RunStart(n, EngineStep, e.cfg.workers, len(e.shards))
	}
	if tw := e.cfg.tw; tw != nil {
		tw.begin(n, e.cfg.seed, e.cfg.faults.String())
	}
	if e.cfg.workers > 1 {
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

		failed := e.failed.Load()
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
		if e.cfg.tw != nil && e.continuing {
			e.emitRound(round)
		}
		if rec := e.cfg.rec; rec != nil {
			rec.RoundEnd(round+1, awakeTotal, slot.State, &e.met)
		}
		if !e.continuing {
			break
		}
		if awakeTotal == 0 && !disableFastForward {
			// Fully parked network, nothing staged: no machine can run until
			// a delayed delivery, a crash, a pulse, a timed wake, or the
			// round budget fires. Jump straight to that event, accruing the
			// skipped rounds' writer-free slots arithmetically, so quiescent
			// stretches — including a genuine wedge spinning to ErrMaxRounds
			// — cost O(1) instead of O(shards) per round while keeping
			// transcripts and Metrics bit-identical with the per-round path.
			round = e.fastForward(round)
		}
	}

	if rec := e.cfg.rec; rec != nil {
		rec.RunEnd(&e.met)
	}
	// The engine runs once, so the result takes its slice rather than a copy.
	res = &Result{Metrics: e.met, Results: e.results}
	if tw := e.cfg.tw; tw != nil {
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
		if err := e.build(graph.NodeID(v)); err != nil {
			// As after a Step panic: what the hook staged leaves under its
			// own id, so no other node of the shard commits it.
			e.recordErr(graph.NodeID(v), err)
			e.commitNode(sd, graph.NodeID(v))
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
	tw := e.cfg.tw
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
// SleepUntilRound-parked nodes due at round q+1 (woken by iteration q), or
// the round budget (iteration maxRounds records ErrMaxRounds). Every
// iteration before the earliest such event just resolves a writer-free slot
// — idle, or a jammed collision — so the engine skips them and accrues
// those slots arithmetically. With a transcript installed the skipped
// rounds' frames are written one by one instead, so the stream stays
// byte-identical to a per-round engine's; that per-round cost is paid only
// when a transcript is on.
//
//mmlint:noalloc
func (e *stepEngine) fastForward(r int) int {
	R := e.ffTarget(r)
	if R <= r+1 {
		return r
	}
	// Iterations r+1 .. R-1 resolve slots r+2 .. R, all writer-free.
	if tw := e.cfg.tw; tw != nil {
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
			tw.WriteRound(&f)
		}
	} else {
		jammed := e.inj.CountJammed(r+2, R)
		e.met.SlotsJammed += jammed
		e.met.SlotsIdle += int64(R-r-1) - jammed
	}
	if rec := e.cfg.rec; rec != nil {
		rec.FastForward(r+2, R)
	}
	return R - 1
}

// ffTarget computes the fast-forward target: the earliest iteration after r
// that can change any state — and must therefore execute per-round — with
// everything before it writer-free.
//
//mmlint:noalloc
func (e *stepEngine) ffTarget(r int) int {
	// The budget fails at iteration maxRounds (round+1 > maxRounds there).
	R := e.cfg.maxRounds
	// Delayed/duplicated messages due at round p are deposited, and nodes
	// parked until round p woken, by iteration p-1.
	for i := range e.shards {
		s := &e.shards[i]
		//mmlint:commutative min reduction over due rounds; order-free
		for p := range s.pending {
			R = min(R, p-1)
		}
		//mmlint:commutative min reduction over wake rounds; order-free
		for p := range s.timed {
			R = min(R, p-1)
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
// small or the engine single-threaded, on the persistent worker pool
// otherwise (the coordinator takes shard 0 itself). The send to a worker
// orders the round state before its phase, and its Done orders the phase
// before Wait returns.
//
//mmlint:noalloc
func (e *stepEngine) runPhase(phase int8, stepped []int, awakeTotal int) {
	if e.work == nil || awakeTotal < inlineThreshold {
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
	e.arrived.Add(len(e.work))
	for _, ch := range e.work {
		ch <- phase
	}
	e.phaseShard(phase, 0)
	if rec := e.cfg.rec; rec != nil {
		// The coordinator's barrier wait: its own shard is done, the round
		// cannot advance until the last worker arrives.
		t0 := rec.BeginPhase(PhaseBarrier, 0)
		e.arrived.Wait()
		rec.EndPhase(PhaseBarrier, 0, e.round, t0)
		return
	}
	e.arrived.Wait()
}

// phaseShard runs one shard's slice of a phase, skipping shards the phase
// has no work for. Shards that do run are bracketed by the recorder's phase
// span when observability is on; skipped shards record nothing.
//
//mmlint:noalloc
func (e *stepEngine) phaseShard(phase int8, i int) {
	p, idle := PhaseStep, len(e.shards[i].awake) == 0
	if phase == phaseDeliver {
		p, idle = PhaseDeliver, !e.needsDelivery(i)
	}
	if idle {
		return
	}
	rec := e.cfg.rec
	var t0 int64
	if rec != nil {
		t0 = rec.BeginPhase(p, i)
	}
	if p == PhaseStep {
		e.stepShard(&e.shards[i])
	} else {
		e.deliverShard(i)
	}
	if rec != nil {
		rec.EndPhase(p, i, e.round, t0)
	}
}

// needsDelivery reports whether a destination shard has anything to do in
// the delivery phase: fresh buckets staged for it, delayed messages due
// this round, or pulse-parked or timed sleepers to wake. Shared by the
// inline and worker paths, so empty shards are never drained on either.
//
//mmlint:noalloc
func (e *stepEngine) needsDelivery(d int) bool {
	sd := &e.shards[d]
	if sd.pendingN > 0 && len(sd.pending[e.round+1]) > 0 {
		return true
	}
	if len(sd.timed) > 0 && len(sd.timed[e.round+1]) > 0 {
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
// shard except shard 0, which the coordinator runs itself between sending
// a phase and waiting for the workers' arrivals.
func (e *stepEngine) startWorkers() {
	e.work = make([]chan int8, len(e.shards)-1)
	for i := range e.work {
		e.work[i] = make(chan int8, 1)
		go e.workerLoop(i+1, e.work[i])
	}
}

// workerLoop is one persistent worker: it runs its shard's slice of each
// phase it receives and reports its arrival, until its channel closes.
func (e *stepEngine) workerLoop(shard int, work <-chan int8) {
	defer e.arrived.Done() // the exit arrival stopWorkers waits for
	rec := e.cfg.rec
	for {
		var t0 int64
		if rec != nil {
			t0 = rec.BeginPhase(PhaseBarrier, shard)
		}
		phase, ok := <-work
		if rec != nil {
			// Everything since the previous arrival — the coordinator's
			// sequential section plus the wait for this phase — is time
			// this worker spent barred from shard work.
			rec.EndPhase(PhaseBarrier, shard, e.round, t0)
		}
		if !ok {
			return
		}
		e.phaseShard(phase, shard)
		e.arrived.Done()
	}
}

// stopWorkers closes every worker's channel and waits for all of them to
// leave, so no worker's barrier span ends after the run returns.
func (e *stepEngine) stopWorkers() {
	e.arrived.Add(len(e.work))
	for _, ch := range e.work {
		close(ch)
	}
	e.arrived.Wait()
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
		e.flags[v] = fl &^ (flagScheduled | flagAsleep | flagPulseWake | flagRoundWake)
		in := Input{Round: round, Msgs: e.inboxIn(s, graph.NodeID(v)), Slot: slot}
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
			// wakes it; a timed sleeper is already in its wake bucket.
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
// write summary, clearing the duplicate-send guard link by link. A send
// within the sender's own shard takes the shard index from its StepCtx.
//
//mmlint:noalloc
func (e *stepEngine) commitNode(s *stepShard, id graph.NodeID) {
	if s.chPending {
		s.writers++
		s.writerID = id
		s.writerPayload = s.chWrite
		s.chPending, s.chWrite = false, nil
	}
	own := int(e.nodes[id].shardIdx)
	for _, o := range s.stage {
		s.sentBits[o.link>>6] &^= uint64(1) << (o.link & 63)
		d := own
		if to := int(o.to); to < s.lo || to >= s.hi {
			d = to / e.shardSize
		}
		s.out[d] = append(s.out[d], delivered{to: o.to, from: id, edgeID: o.edgeID, payload: o.payload})
	}
	s.stage = s.stage[:0]
}

// deliverShard runs the delivery phase for one destination shard: wake
// pulse-parked nodes if the pulse fired and timed sleepers due next round,
// then land the round's messages —
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
	if len(sd.timed) > 0 {
		e.wakeTimed(sd, deliverRound)
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
		if box := e.inboxIn(sd, graph.NodeID(v)); len(box) > 1 {
			sortInbox(box)
		}
		// Wake the recipient, in first-arrival order.
		fl := e.flags[v]
		if fl&flagScheduled == 0 {
			e.flags[v] = (fl | flagScheduled) &^ flagAsleep
			sd.awake = append(sd.awake, v)
		}
	}
	if e.cfg.tw == nil {
		// With a transcript on, the coordinator digests and clears the
		// touched lists after the phase (emitRound); the hot path never
		// does transcript work.
		sd.touched = sd.touched[:0]
	}
}

// wakeTimed wakes the shard's nodes parked by SleepUntilRound until round
// r, skipping stale entries, and recycles the drained bucket.
//
//mmlint:noalloc
func (e *stepEngine) wakeTimed(sd *stepShard, r int) {
	due, ok := sd.timed[r]
	if !ok {
		return
	}
	delete(sd.timed, r)
	for _, v := range due {
		fl := e.flags[v]
		if fl&(flagHalted|flagRoundWake) != flagRoundWake || sd.wakeAt[int(v)-sd.lo] != r {
			continue
		}
		fl &^= flagRoundWake
		if fl&flagScheduled == 0 {
			fl = (fl | flagScheduled) &^ flagAsleep
			sd.awake = append(sd.awake, v)
		}
		e.flags[v] = fl
	}
	sd.timedFree = append(sd.timedFree, due[:0])
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
	e.failed.Store(true)
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
