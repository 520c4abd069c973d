// Package fault is the deterministic chaos engine of the simulator: a
// declarative, seedable fault plan injected beneath unmodified workloads, in
// the spirit of chaos-mesh's declarative chaos objects. A Plan is a list of
// Rules — crash-stop a node, drop/delay/duplicate messages on a link, jam
// the multiaccess channel — compiled by the sim engine into per-round
// injection hooks applied at its single delivery and slot-resolution choke
// points, so every existing Machine runs under faults unmodified.
//
// # Round convention
//
// All fault rounds refer to the observation round: the Input.Round at which
// the effect would be (or fails to be) observed. A message sent during
// compute round r-1 is normally observed in Input{Round: r}; a drop window
// containing r destroys it, a delay of d moves it to Input{Round: r+d}. A
// jam at round r forces the slot carried by Input{Round: r} to resolve as a
// collision. A crash at round r means the node's last executed compute
// round is r-1: its round r-1 sends are still delivered (crash-stop at the
// round boundary), but it never observes Input{Round: r} or later, and
// messages addressed to it from round r on are dropped. Round windows start
// at 1 — round 0 is the initial compute every node performs.
//
// # Determinism
//
// Probabilistic rules (Prob < 1) draw from a pure hash of (plan seed, rule
// index, edge, sender, round), never from shared RNG state, so a fixed
// (graph, program, seed, plan) yields a bit-identical transcript at any
// worker count — the simulator's determinism contract extends to faults.
package fault

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
)

// Kind discriminates fault rules.
type Kind int

// The fault kinds.
const (
	// Crash crash-stops Node at round From: it never observes that or any
	// later round. With Prob < 1 the crash is a compile-time coin — the
	// node either crashes in every run of the plan, or never.
	Crash Kind = iota + 1
	// CrashFrac crash-stops a seeded-random ⌈Frac·n⌉-node subset, each at a
	// seeded-random round within [From, Until]. Resolved against the graph
	// at compile time, so one plan applies to any topology.
	CrashFrac
	// Drop destroys messages whose delivery on Edge falls in [From, Until].
	Drop
	// Delay defers messages whose delivery on Edge falls in [From, Until]
	// by Lag rounds.
	Delay
	// Dup delivers messages on Edge normally and again Lag rounds later.
	Dup
	// Jam forces the channel slot observed in rounds [From, Until] to
	// resolve as a collision, hiding any writer — adversarial affectance on
	// the shared medium.
	Jam
	// Partition cuts the point-to-point network into Groups seeded
	// components for the window: every message whose endpoints hash into
	// different groups is destroyed, then the cut heals. The multiaccess
	// channel is deliberately unaffected — it is a shared medium, not a
	// link. Group membership is a pure hash of (plan seed, rule index,
	// node), so one plan partitions any topology the same way in every run.
	Partition
	// Restart is crash-restart: a node crash-stopped by an earlier Crash
	// rule rejoins at round From with reset protocol state (a fresh initial
	// compute at that round) and a fresh RNG stream for the new
	// incarnation. Unlike every other kind it revives rather than injures.
	Restart
	// Skew applies per-node clock skew at the §7.1 synchronizer layer:
	// during the window, every message sent by Node arrives Lag rounds
	// late — its clock runs behind the global pulse. Valid only for
	// synchronizer runs (Caps.Skew); plain round-synchronous protocols
	// have no clock to skew.
	Skew
)

// String returns the DSL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case CrashFrac:
		return "crashfrac"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Jam:
		return "jam"
	case Partition:
		return "partition"
	case Restart:
		return "restart"
	case Skew:
		return "skew"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllEdges as a Rule.Edge applies a link fault to every edge of the graph
// (uniform message loss, network-wide delay jitter, ...).
const AllEdges = -1

// Forever as a Rule.Until leaves the round window open-ended.
const Forever = math.MaxInt

// Rule is one declarative fault. Zero-valued optional fields take defaults:
// Until 0 means From (a single-round window), Prob 0 means 1 (always fire),
// Lag 0 means 1 round.
type Rule struct {
	Kind   Kind
	Node   graph.NodeID // Crash/Restart/Skew: the node affected
	Frac   float64      // CrashFrac: fraction of nodes in (0, 1]
	Edge   int          // Drop/Delay/Dup: edge id, or AllEdges
	From   int          // first observation round affected (≥ 1)
	Until  int          // last observation round affected; 0 = From, Forever = open
	Prob   float64      // chance the rule fires per event; 0 = 1 (certain)
	Lag    int          // Delay/Dup/Skew: extra rounds; 0 = 1
	Groups int          // Partition: number of seeded components (≥ 2)
	Every  int          // recurrence period: the window repeats every Every rounds (0 = one-shot)
}

// window returns the rule's normalized [from, until] round window.
func (r *Rule) window() (int, int) {
	until := r.Until
	if until == 0 {
		until = r.From
	}
	return r.From, until
}

// prob returns the rule's normalized firing probability.
func (r *Rule) prob() float64 {
	if r.Prob == 0 {
		return 1
	}
	return r.Prob
}

// lag returns the rule's normalized delay in rounds.
func (r *Rule) lag() int {
	if r.Lag == 0 {
		return 1
	}
	return r.Lag
}

// Plan is a complete declarative fault scenario: an ordered rule list plus
// the seed driving every probabilistic decision. The zero Plan (or a nil
// *Plan) injects nothing.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Rules) == 0 }

// Add appends rules and returns the plan (builder style).
func (p *Plan) Add(rules ...Rule) *Plan {
	p.Rules = append(p.Rules, rules...)
	return p
}

// String renders the plan in the DSL accepted by Parse (round-trippable).
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed:%d", p.Seed))
	}
	for i := range p.Rules {
		parts = append(parts, ruleString(&p.Rules[i]))
	}
	return strings.Join(parts, ";")
}

func ruleString(r *Rule) string {
	var b strings.Builder
	b.WriteString(r.Kind.String())
	b.WriteByte(':')
	switch r.Kind {
	case Crash, Restart, Skew:
		fmt.Fprintf(&b, "%d@", r.Node)
	case CrashFrac:
		fmt.Fprintf(&b, "%g@", r.Frac)
	case Partition:
		fmt.Fprintf(&b, "%d@", r.Groups)
	case Drop, Delay, Dup:
		if r.Edge == AllEdges {
			b.WriteByte('*')
		} else {
			fmt.Fprintf(&b, "%d", r.Edge)
		}
		b.WriteByte('@')
	case Jam:
	}
	from, until := r.window()
	switch {
	case until == from: // before Forever: a single round at MaxInt stays one
		fmt.Fprintf(&b, "%d", from)
	case until == Forever:
		fmt.Fprintf(&b, "%d-", from)
	default:
		fmt.Fprintf(&b, "%d-%d", from, until)
	}
	if r.Kind == Delay || r.Kind == Skew || (r.Kind == Dup && r.Lag > 1) {
		fmt.Fprintf(&b, "/d%d", r.lag())
	}
	if r.Every > 0 {
		fmt.Fprintf(&b, "/e%d", r.Every)
	}
	if p := r.prob(); p < 1 {
		fmt.Fprintf(&b, "/p%g", p)
	}
	return b.String()
}

// validate checks the plan against a concrete topology under the given
// engine capabilities, including the cross-rule constraint that every
// Restart is preceded by a Crash of the same node.
func (p *Plan) validate(g graph.Topology, caps Caps) error {
	for i := range p.Rules {
		r := &p.Rules[i]
		if err := r.validate(g, caps); err != nil {
			return fmt.Errorf("fault: rule %d (%s): %w", i, ruleString(r), err)
		}
		if r.Kind != Restart {
			continue
		}
		crashed := false
		for j := range p.Rules {
			c := &p.Rules[j]
			if c.Kind == Crash && c.Node == r.Node && c.From < r.From {
				crashed = true
				break
			}
		}
		if !crashed {
			return fmt.Errorf("fault: rule %d (%s): restart of node %d needs a crash:%d@R rule at an earlier round",
				i, ruleString(r), r.Node, r.Node)
		}
	}
	return nil
}

func (r *Rule) validate(g graph.Topology, caps Caps) error {
	from, until := r.window()
	if from < 1 {
		return fmt.Errorf("round window starts at %d, want ≥ 1", from)
	}
	if until < from {
		return fmt.Errorf("round window [%d, %d] is empty", from, until)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("probability %g outside [0, 1]", r.Prob)
	}
	if r.Lag < 0 {
		return fmt.Errorf("negative lag %d", r.Lag)
	}
	if r.Every != 0 {
		switch r.Kind {
		case Crash, CrashFrac, Restart:
			return fmt.Errorf("%s takes no /e recurrence", r.Kind)
		}
		if r.Every <= 0 {
			return fmt.Errorf("zero or negative period %d (want /eN with N ≥ 1)", r.Every)
		}
		if until == Forever {
			return fmt.Errorf("recurring rule needs a bounded round window")
		}
		if r.Every < until-from+1 {
			return fmt.Errorf("period %d shorter than the %d-round window it repeats", r.Every, until-from+1)
		}
	}
	switch r.Kind {
	case Crash:
		if int(r.Node) < 0 || int(r.Node) >= g.N() {
			return fmt.Errorf("node %d outside graph of %d nodes", r.Node, g.N())
		}
		if r.Lag != 0 {
			return fmt.Errorf("crash takes no /d lag")
		}
	case CrashFrac:
		if r.Frac <= 0 || r.Frac > 1 {
			return fmt.Errorf("fraction %g outside (0, 1]", r.Frac)
		}
		if until == Forever {
			return fmt.Errorf("crashfrac needs a bounded round window")
		}
		if r.Prob != 0 {
			return fmt.Errorf("crashfrac draws its randomness from the fraction; /p is not allowed")
		}
		if r.Lag != 0 {
			return fmt.Errorf("crashfrac takes no /d lag")
		}
	case Drop, Delay, Dup:
		if r.Edge != AllEdges && (r.Edge < 0 || r.Edge >= g.M()) {
			return fmt.Errorf("edge %d outside graph of %d edges", r.Edge, g.M())
		}
	case Jam:
	case Partition:
		if r.Groups < 2 {
			return fmt.Errorf("partition needs at least 2 groups, got %d", r.Groups)
		}
		if r.Groups > g.N() {
			return fmt.Errorf("partition into %d groups outside graph of %d nodes", r.Groups, g.N())
		}
		if r.Prob != 0 {
			return fmt.Errorf("partition is all-or-nothing; /p is not allowed")
		}
		if r.Lag != 0 {
			return fmt.Errorf("partition takes no /d lag")
		}
	case Restart:
		if int(r.Node) < 0 || int(r.Node) >= g.N() {
			return fmt.Errorf("node %d outside graph of %d nodes", r.Node, g.N())
		}
		if r.Lag != 0 {
			return fmt.Errorf("restart takes no /d lag")
		}
		if r.Prob != 0 {
			return fmt.Errorf("restart fires iff its crash fired; /p is not allowed")
		}
	case Skew:
		if int(r.Node) < 0 || int(r.Node) >= g.N() {
			return fmt.Errorf("node %d outside graph of %d nodes", r.Node, g.N())
		}
		if r.Prob != 0 {
			return fmt.Errorf("skew is deterministic; /p is not allowed")
		}
		if !caps.Skew {
			return fmt.Errorf("skew applies only to synchronizer runs (the §7.1 async layer)")
		}
	default:
		return fmt.Errorf("unknown kind %d", int(r.Kind))
	}
	return nil
}

// FromFlag parses the plan a command's -faults flag describes: the DSL, with
// seed 1 when it has no seed:N item. An empty plan parses to nil (no
// faults).
func FromFlag(dsl string) (*Plan, error) {
	p, err := Parse(dsl)
	if err != nil || p == nil {
		return nil, err
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p, nil
}
