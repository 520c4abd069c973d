package fault

// compile.go turns a declarative Plan into an Injector: the compiled,
// read-only lookup structure the sim engine consults at its per-round
// choke points. Compilation validates the plan against the concrete graph,
// resolves CrashFrac rules into concrete (node, round) crashes, and indexes
// message rules by edge. An Injector is immutable after Compile, so the
// engine may query it from any number of workers without synchronization.

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Fate is the injector's verdict on one message delivery.
type Fate int

// The message fates.
const (
	// Deliver leaves the message alone.
	Deliver Fate = iota
	// DropMsg destroys the message.
	DropMsg
	// DelayMsg defers the message by the returned lag.
	DelayMsg
	// DupMsg delivers the message now and again after the returned lag.
	DupMsg
	// PartitionDrop destroys the message because its endpoints are in
	// different partition components during an active partition window.
	PartitionDrop
	// SkewMsg defers the message by the returned lag because its sender's
	// clock is skewed (synchronizer runs only). Mechanically a delay, but
	// counted separately.
	SkewMsg
)

// Caps declares which fault capabilities the executing engine layer
// supports. Plain round-synchronous runs compile with the zero Caps; the
// §7.1 synchronizer layer enables Skew.
type Caps struct {
	// Skew permits skew: rules — per-node clock skew only means something
	// where a synchronizer simulates the clock.
	Skew bool
}

// mrule is one compiled message-fault rule.
type mrule struct {
	fate  Fate // DropMsg, DelayMsg, or DupMsg
	index int  // rule index in the plan, salting the coin flips
	from  int
	until int
	every int
	prob  float64
	lag   int
}

// jrule is one compiled jam rule.
type jrule struct {
	index int
	from  int
	until int
	every int
	prob  float64
}

// prule is one compiled partition rule.
type prule struct {
	index  int
	from   int
	until  int
	every  int
	groups int
}

// srule is one compiled clock-skew rule.
type srule struct {
	index int
	node  graph.NodeID
	from  int
	until int
	every int
	lag   int
}

// inWindow reports whether round falls in the window [from, until],
// repeated with period `every` when every > 0 (the /eN recurrence: the
// window re-opens at from, from+every, from+2·every, ...).
func inWindow(round, from, until, every int) bool {
	if round < from {
		return false
	}
	if every <= 0 {
		return round <= until
	}
	return (round-from)%every <= until-from
}

// Injector is a compiled fault plan. The zero value and the nil Injector
// inject nothing; engines may hold a nil *Injector for fault-free runs and
// skip every hook.
type Injector struct {
	seed          int64
	crashes       map[int][]graph.NodeID // observation round -> nodes crashing
	crashRounds   []int                  // sorted distinct crash rounds (next-event queries)
	restarts      map[int][]graph.NodeID // round -> crashed nodes rejoining fresh
	restartRounds []int                  // sorted distinct restart rounds
	edgeRules     map[int][]mrule        // per-edge message rules, plan order
	allRules      []mrule                // wildcard (AllEdges) message rules
	jams          []jrule
	parts         []prule
	skews         []srule
}

// Compile validates the plan against g (any topology form) and builds its
// injector under the zero capability set (no synchronizer-only rules). A
// nil or empty plan compiles to a nil injector and no error.
func Compile(p *Plan, g graph.Topology) (*Injector, error) {
	return CompileFor(p, g, Caps{})
}

// CompileFor compiles the plan for an engine layer with the given
// capabilities. The §7.1 synchronizer passes Caps{Skew: true}; everything
// else should use Compile.
func CompileFor(p *Plan, g graph.Topology, caps Caps) (*Injector, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.validate(g, caps); err != nil {
		return nil, err
	}
	inj := &Injector{seed: p.Seed}
	type restartRule struct {
		node  graph.NodeID
		round int
	}
	var restartRules []restartRule
	for i := range p.Rules {
		r := &p.Rules[i]
		from, until := r.window()
		switch r.Kind {
		case Crash:
			// /pP on a crash rule is a compile-time coin: the node either
			// crashes at its round in every run of the plan, or never.
			if p := r.prob(); p >= 1 || inj.roll(i, uint64(r.Node), 0xc4a5e, 0, p) {
				inj.addCrash(r.Node, from)
			}
		case CrashFrac:
			// Resolve the fraction into concrete crashes with a private RNG
			// derived from (plan seed, rule index): the same plan picks the
			// same victims and rounds on any engine, every stage of a
			// multi-stage protocol, and any worker count.
			n := g.N()
			k := int(math.Ceil(r.Frac * float64(n)))
			if k > n {
				k = n
			}
			rng := rand.New(rand.NewSource(int64(Mix64(uint64(p.Seed), uint64(i), 0x5eed))))
			for _, v := range rng.Perm(n)[:k] {
				inj.addCrash(graph.NodeID(v), from+rng.Intn(until-from+1))
			}
		case Drop, Delay, Dup:
			m := mrule{index: i, from: from, until: until, every: r.Every, prob: r.prob(), lag: r.lag()}
			switch r.Kind {
			case Drop:
				m.fate = DropMsg
			case Delay:
				m.fate = DelayMsg
			case Dup:
				m.fate = DupMsg
			}
			if r.Edge == AllEdges {
				inj.allRules = append(inj.allRules, m)
			} else {
				if inj.edgeRules == nil {
					inj.edgeRules = make(map[int][]mrule)
				}
				inj.edgeRules[r.Edge] = append(inj.edgeRules[r.Edge], m)
			}
		case Jam:
			inj.jams = append(inj.jams, jrule{index: i, from: from, until: until, every: r.Every, prob: r.prob()})
		case Partition:
			inj.parts = append(inj.parts, prule{index: i, from: from, until: until, every: r.Every, groups: r.Groups})
		case Restart:
			restartRules = append(restartRules, restartRule{node: r.Node, round: from})
		case Skew:
			inj.skews = append(inj.skews, srule{index: i, node: r.Node, from: from, until: until, every: r.Every, lag: r.lag()})
		}
	}
	// A restart fires iff its crash fired (a /pP crash is a compile-time
	// coin that may leave the node standing): keep only restarts whose node
	// is actually scheduled to crash at an earlier round.
	for _, rr := range restartRules {
		//mmlint:commutative order-free membership test: does the node crash at any earlier round
		for round, nodes := range inj.crashes {
			if round >= rr.round {
				continue
			}
			if slices.Contains(nodes, rr.node) {
				inj.addRestart(rr.node, rr.round)
				break
			}
		}
	}
	//mmlint:commutative per-round slices are sorted in place and the round indexes are sorted after
	for round, nodes := range inj.crashes {
		slices.Sort(nodes)
		inj.crashRounds = append(inj.crashRounds, round)
	}
	sort.Ints(inj.crashRounds)
	//mmlint:commutative per-round slices are sorted in place and restartRounds is sorted after
	for round, nodes := range inj.restarts {
		slices.Sort(nodes)
		inj.restartRounds = append(inj.restartRounds, round)
	}
	sort.Ints(inj.restartRounds)
	return inj, nil
}

func (inj *Injector) addCrash(v graph.NodeID, round int) {
	if inj.crashes == nil {
		inj.crashes = make(map[int][]graph.NodeID)
	}
	inj.crashes[round] = append(inj.crashes[round], v)
}

func (inj *Injector) addRestart(v graph.NodeID, round int) {
	if inj.restarts == nil {
		inj.restarts = make(map[int][]graph.NodeID)
	}
	inj.restarts[round] = append(inj.restarts[round], v)
}

// CrashesAt returns the nodes crash-stopping at the given observation round
// (ascending node order). Nil-safe.
func (inj *Injector) CrashesAt(round int) []graph.NodeID {
	if inj == nil {
		return nil
	}
	return inj.crashes[round]
}

// NextCrashAfter returns the earliest crash round strictly after the given
// round — the next-event query engines use to fast-forward quiescent
// stretches. Nil-safe; ok is false when no later crash is scheduled.
func (inj *Injector) NextCrashAfter(round int) (next int, ok bool) {
	if inj == nil || len(inj.crashRounds) == 0 {
		return 0, false
	}
	i := sort.SearchInts(inj.crashRounds, round+1)
	if i == len(inj.crashRounds) {
		return 0, false
	}
	return inj.crashRounds[i], true
}

// RestartsAt returns the crashed nodes rejoining fresh at the given round
// (ascending node order): each performs its new incarnation's initial
// compute at that round. Nil-safe.
func (inj *Injector) RestartsAt(round int) []graph.NodeID {
	if inj == nil {
		return nil
	}
	return inj.restarts[round]
}

// HasRestarts reports whether any restart is scheduled. Nil-safe.
func (inj *Injector) HasRestarts() bool { return inj != nil && len(inj.restarts) > 0 }

// NextRestartAfter returns the earliest restart round strictly after the
// given round — the next-event query that keeps fast-forwarded quiescent
// stretches from jumping over a scheduled rejoin. Nil-safe; ok is false
// when no later restart is scheduled.
func (inj *Injector) NextRestartAfter(round int) (next int, ok bool) {
	if inj == nil || len(inj.restartRounds) == 0 {
		return 0, false
	}
	i := sort.SearchInts(inj.restartRounds, round+1)
	if i == len(inj.restartRounds) {
		return 0, false
	}
	return inj.restartRounds[i], true
}

// HasJams reports whether any jam rule exists. Nil-safe.
func (inj *Injector) HasJams() bool { return inj != nil && len(inj.jams) > 0 }

// NextClearSlot returns the earliest round in [from, until] whose slot is
// not jammed. Without jam rules that is from itself, for free; with them
// the scan costs one Jammed query per jammed round skipped. Nil-safe, pure,
// and safe for concurrent use.
func (inj *Injector) NextClearSlot(from, until int) (round int, ok bool) {
	if from > until {
		return 0, false
	}
	if !inj.HasJams() {
		return from, true
	}
	for s := from; s <= until; s++ {
		if !inj.Jammed(s) {
			return s, true
		}
	}
	return 0, false
}

// CountJammed returns how many of the slots in [from, until] are jammed —
// the arithmetic engines need to account for slots they fast-forward over.
// The scan is clamped to the union of the jam windows, so plans without jam
// rules (or with windows elsewhere) cost nothing. Nil-safe, pure, and safe
// for concurrent use.
func (inj *Injector) CountJammed(from, until int) int64 {
	if !inj.HasJams() || from > until {
		return 0
	}
	lo, hi := math.MaxInt, 0
	for i := range inj.jams {
		lo = min(lo, inj.jams[i].from)
		if inj.jams[i].every > 0 {
			// A recurring jam re-opens its window forever; only one-shot
			// rules bound the scan from above.
			hi = math.MaxInt
		} else {
			hi = max(hi, inj.jams[i].until)
		}
	}
	from, until = max(from, lo), min(until, hi)
	var n int64
	for s := from; s <= until; s++ {
		if inj.Jammed(s) {
			n++
		}
	}
	return n
}

// HasMsgFaults reports whether any message rule exists, letting engines
// skip the per-message hook entirely on plans without link faults. Nil-safe.
func (inj *Injector) HasMsgFaults() bool {
	return inj != nil && (len(inj.edgeRules) > 0 || len(inj.allRules) > 0 ||
		len(inj.parts) > 0 || len(inj.skews) > 0)
}

// group returns the partition component the node hashes into under the
// given partition rule index and group count: a pure hash of (plan seed,
// rule index, node), so membership is identical on every engine, worker
// count, and run. Pure and allocation-free.
func (inj *Injector) group(index, groups int, v graph.NodeID) int {
	return int(Mix64(uint64(inj.seed), 0x9a7717a0+uint64(index), uint64(v)) % uint64(groups))
}

// MsgFate decides the fate of one message: the message crossing edgeID from
// sender `from` to recipient `to`, normally observed at deliverRound.
// Partition rules are evaluated first (a cut severs the link regardless of
// what other rules would do), then clock-skew rules, then edge-specific
// rules before wildcard rules, each class in plan order; the first rule
// whose window contains the round and whose coin fires decides. The
// returned lag is meaningful for DelayMsg, DupMsg, and SkewMsg. Pure and
// safe for concurrent use.
func (inj *Injector) MsgFate(edgeID int, from, to graph.NodeID, deliverRound int) (Fate, int) {
	if inj == nil {
		return Deliver, 0
	}
	for i := range inj.parts {
		p := &inj.parts[i]
		if !inWindow(deliverRound, p.from, p.until, p.every) {
			continue
		}
		if inj.group(p.index, p.groups, from) != inj.group(p.index, p.groups, to) {
			return PartitionDrop, 0
		}
	}
	for i := range inj.skews {
		s := &inj.skews[i]
		if s.node != from || !inWindow(deliverRound, s.from, s.until, s.every) {
			continue
		}
		return SkewMsg, s.lag
	}
	if rules, ok := inj.edgeRules[edgeID]; ok {
		if f, lag, ok := inj.applyRules(rules, edgeID, from, deliverRound); ok {
			return f, lag
		}
	}
	if f, lag, ok := inj.applyRules(inj.allRules, edgeID, from, deliverRound); ok {
		return f, lag
	}
	return Deliver, 0
}

func (inj *Injector) applyRules(rules []mrule, edgeID int, from graph.NodeID, round int) (Fate, int, bool) {
	for i := range rules {
		r := &rules[i]
		if !inWindow(round, r.from, r.until, r.every) {
			continue
		}
		if r.prob < 1 && !inj.roll(r.index, uint64(edgeID), uint64(from), uint64(round), r.prob) {
			continue
		}
		return r.fate, r.lag, true
	}
	return Deliver, 0, false
}

// Jammed reports whether the slot observed at the given round is jammed.
// Nil-safe, pure, and safe for concurrent use.
func (inj *Injector) Jammed(round int) bool {
	if inj == nil {
		return false
	}
	for i := range inj.jams {
		j := &inj.jams[i]
		if !inWindow(round, j.from, j.until, j.every) {
			continue
		}
		if j.prob >= 1 || inj.roll(j.index, 0x1a77, 0, uint64(round), j.prob) {
			return true
		}
	}
	return false
}

// roll is the deterministic coin: a splitmix64-style hash of (plan seed,
// rule index, event identity) mapped to [0, 1) and compared to prob.
func (inj *Injector) roll(index int, a, b, c uint64, prob float64) bool {
	h := Mix64(uint64(inj.seed), uint64(index), a)
	h = Mix64(h, b, c)
	return float64(h>>11)/(1<<53) < prob
}

// Mix64 combines three words with the splitmix64 finalizer. It is the
// keyed mixing primitive behind every deterministic coin in the module:
// the injector's probabilistic rules here, the implicit topologies' edge
// weights, and — critically — the sim engine's per-node RNG seed
// derivation, where a full-width mix is what guarantees distinct streams
// for distinct (master seed, node id) pairs at any network size (a linear
// seed*K+id derivation collides as soon as n exceeds K).
func Mix64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb + 0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
