package partition

import (
	"errors"
	"math"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// The randomized partitioning algorithm (§4). Iterations are synchronized by
// their precomputed fixed length (the paper: "the processors can compute the
// length of each iteration"). Iteration i:
//
//  1. every free node flips a coin with probability min(1, E_i/√n) — the
//     tower E_0 = 1, E_{i+1} = e^{E_i} — and heads become local centers;
//  2. centers grow BFS trees to depth at most 4√n over free nodes, with
//     nodes adopting the (distance, least-root-id) minimum and switching
//     trees only when their label decreases;
//  3. trees with no outgoing link to an unlabeled free node become unfree
//     entirely; in all other trees the nodes with label ≤ 2√n become unfree;
//  4. newly unfree nodes announce themselves so incident links die.
//
// Links found internal to a tree without being tree edges are removed for
// the algorithm's purposes, the paper's message-saving rule. The final
// iteration uses probability 1, so every node finishes. The result is a
// spanning forest of trees with radius ≤ 4√n and E[#trees] = O(√n).

const unlabeled = math.MaxInt32

// ErrLasVegasRestarts is returned if the Las Vegas wrapper exceeds its
// restart budget (probability < 2^-budget per the paper's analysis).
var ErrLasVegasRestarts = errors.New("partition: las vegas restart budget exhausted")

// RandomizedInfo reports auxiliary facts about a randomized-partition run.
type RandomizedInfo struct {
	Iterations int
	Restarts   int            // Las Vegas only
	RootOrder  []graph.NodeID // Las Vegas only: the verified channel schedule of cores
}

// message payloads of the randomized partition.
type (
	rpUpdate struct { // BFS wave: sender's root and label
		Root  graph.NodeID
		Label int
	}
	rpStatus struct { // post-BFS neighbor exchange
		InTree     bool
		Root       graph.NodeID
		ParentLink bool // this link is the sender's tree parent link
	}
	rpConv   struct{ HasOutgoing bool } // convergecast: subtree has link to unlabeled free node
	rpDecide struct{ KeepAll bool }     // root's verdict broadcast down the tree
	rpUnfree struct{}                   // sender became unfree; link dies
)

// iterationProbs returns the per-iteration head probabilities: the tower
// E_i/√n capped at 1. The last entry is exactly 1, guaranteeing termination;
// there are at most ln* n + O(1) entries.
func iterationProbs(sqrtN int) []float64 {
	var probs []float64
	t := 1.0
	for {
		p := t / float64(sqrtN)
		if p >= 1 {
			probs = append(probs, 1)
			return probs
		}
		probs = append(probs, p)
		t = math.Exp(t)
	}
}

// randShared is the per-run state every rMachine points at.
type randShared struct {
	sqrtN       int
	dmax        int // BFS depth bound 4√n
	cut         int // unfree label threshold 2√n
	iterLen     int // rounds per iteration, 3·dmax + 8
	probs       []float64
	lasVegas    bool
	maxRestarts int
	info        RandomizedInfo // node 0's report
	slab        sim.Slab[rMachine]
}

// Per-link flags of an rMachine.
const (
	rLive  uint8 = 1 << iota // the link still carries the algorithm's messages
	rChild                   // a child in the current iteration's tree
)

// rMachine is one node's state in the randomized partition. Iterations run
// for a precomputed number of rounds, so the machine counts rounds and is
// stepped every round: it never sleeps.
type rMachine struct {
	c  *sim.StepCtx
	sh *randShared

	free       bool
	label      int
	root       graph.NodeID
	parentEdge int // graph edge id to parent; -1 for centers/unlabeled

	inTree          bool // labeled in the current iteration's BFS
	pendingAnnounce bool
	links           []uint8 // per-link flags
	childLinks      []int   // local link indices of current-iteration children
	outcome         NodeOutcome
	finished        bool

	attempt  int
	restarts int
	iter     int // index into probs
	pos      int // rounds of the current iteration begun so far

	or       bool // Phase D: subtree has a link to an unlabeled free node
	reports  int
	sentUp   bool
	decided  bool
	keepAll  bool
	sentDown bool

	verify *resolve.MetcalfeBoggsStep // Las Vegas: the channel schedule of the cores
	result any
}

func (sh *randShared) program(c *sim.StepCtx) sim.Machine {
	m := sh.slab.Alloc(c.N())
	*m = rMachine{c: c, sh: sh, links: make([]uint8, c.Degree())}
	m.reset()
	return m
}

// reset restores the initial all-free state (used on Las Vegas restarts).
func (m *rMachine) reset() {
	m.free = true
	m.label = unlabeled
	m.root = -1
	m.parentEdge = -1
	m.inTree = false
	m.pendingAnnounce = false
	m.finished = false
	for l := range m.links {
		m.links[l] = rLive
	}
	m.childLinks = m.childLinks[:0]
	m.outcome = NodeOutcome{Parent: -1, ParentEdge: -1, Root: -1}
}

// sendLive sends p on every live link except the one with local index skip
// (pass -1 to send on all live links).
func (m *rMachine) sendLive(p sim.Payload, skip int) {
	for l, f := range m.links {
		if f&rLive != 0 && l != skip {
			m.c.Send(l, p)
		}
	}
}

func (m *rMachine) parentLinkIdx() int {
	if m.parentEdge == -1 {
		return -1
	}
	return m.c.LinkOf(m.parentEdge)
}

func (m *rMachine) Step(in sim.Input) bool {
	if m.verify != nil {
		if !m.verify.Poll(in) {
			return false
		}
		return m.verified()
	}
	if m.pos > 0 {
		m.receive(m.pos-1, in)
	}
	if m.pos == m.sh.iterLen {
		if m.iter+1 == len(m.sh.probs) {
			return m.attemptDone()
		}
		m.iter, m.pos = m.iter+1, 0
	}
	m.send(m.pos)
	m.pos++
	return false
}

// An iteration with head probability p takes exactly 3·dmax + 8 rounds on
// every node. By round offset within it:
//
//	0                   Phase A: coin flip
//	1 … dmax+1          Phase B: synchronous multi-source BFS over free nodes
//	dmax+2              Phase C: status exchange on live links
//	dmax+3 … 2·dmax+4   Phase D: convergecast OR(hasOutgoing) to the root
//	2·dmax+5 … 3·dmax+6 Phase E: the root broadcasts its verdict down the tree
//	3·dmax+7            Phase F: newly unfree nodes announce, so links die
//
// send stages a round's transmissions; receive consumes the input the
// round's sends produced, one round later.

// send runs round pos of the iteration up to its transmissions.
func (m *rMachine) send(pos int) {
	c, d := m.c, m.sh.dmax
	switch {
	case pos == 0:
		m.inTree = false
		for _, l := range m.childLinks {
			m.links[l] &^= rChild
		}
		m.childLinks = m.childLinks[:0]
		if m.free && c.Rand().Float64() < m.sh.probs[m.iter] {
			m.label = 0
			m.root = c.ID()
			m.parentEdge = -1
			m.inTree = true
			m.pendingAnnounce = true
		}
	case pos <= d+1:
		if m.pendingAnnounce && m.label < d {
			m.sendLive(rpUpdate{Root: m.root, Label: m.label}, m.parentLinkIdx())
		}
		m.pendingAnnounce = false
	case pos == d+2:
		if m.free {
			pl := -1
			if m.inTree {
				pl = m.parentLinkIdx()
			}
			for l, f := range m.links {
				if f&rLive != 0 {
					c.Send(l, rpStatus{InTree: m.inTree, Root: m.root, ParentLink: m.inTree && l == pl})
				}
			}
		}
	case pos <= 2*d+4:
		if m.inTree && !m.sentUp && m.reports == len(m.childLinks) {
			if m.label > 0 {
				c.Send(m.parentLinkIdx(), rpConv{HasOutgoing: m.or})
			}
			m.sentUp = true
		}
	case pos <= 3*d+6:
		if pos == 2*d+5 {
			m.keepAll = false
			m.decided = m.inTree && m.label == 0
			if m.decided {
				m.keepAll = !m.or
			}
			m.sentDown = false
		}
		if m.decided && !m.sentDown {
			for _, l := range m.childLinks {
				c.Send(l, rpDecide{KeepAll: m.keepAll})
			}
			m.sentDown = true
		}
	default:
		// Newly unfree nodes record their outcome and announce so incident
		// links die.
		if m.inTree && m.decided && (m.keepAll || m.label <= m.sh.cut) {
			m.free = false
			m.finished = true
			m.outcome = NodeOutcome{Parent: -1, ParentEdge: -1, Root: m.root}
			if m.label > 0 {
				e := c.Topo().Edge(m.parentEdge)
				m.outcome.Parent = e.Other(c.ID())
				m.outcome.ParentEdge = m.parentEdge
			}
			m.sendLive(rpUnfree{}, -1)
		}
	}
}

// receive consumes the input that follows round pos of the iteration.
func (m *rMachine) receive(pos int, in sim.Input) {
	d := m.sh.dmax
	switch {
	case pos == 0:
		// Nothing is sent in the coin round.
	case pos <= d+1:
		m.adopt(in.Msgs)
	case pos == d+2:
		m.or = m.processStatus(in.Msgs)
		m.reports = 0
		m.sentUp = false
	case pos <= 2*d+4:
		for _, msg := range in.Msgs {
			if cm, ok := msg.Payload.(rpConv); ok {
				m.or = m.or || cm.HasOutgoing
				m.reports++
			}
		}
	case pos <= 3*d+6:
		for _, msg := range in.Msgs {
			if dm, ok := msg.Payload.(rpDecide); ok {
				m.decided = true
				m.keepAll = dm.KeepAll
			}
		}
	default:
		// The unfree announcements of Phase F.
		for _, msg := range in.Msgs {
			if _, ok := msg.Payload.(rpUnfree); ok {
				m.links[m.c.LinkOf(msg.EdgeID)] &^= rLive
			}
		}
	}
}

// adopt applies the BFS adoption rule to one round's updates: take the
// minimum (label+1, root) candidate, switch only if it strictly reduces the
// label (ties between simultaneous candidates break toward the least root).
func (m *rMachine) adopt(msgs []sim.Message) {
	if !m.free {
		return
	}
	bestLabel, bestRoot, bestEdge := unlabeled, graph.NodeID(-1), -1
	for _, msg := range msgs {
		u, ok := msg.Payload.(rpUpdate)
		if !ok {
			continue
		}
		cand := u.Label + 1
		if cand < bestLabel || (cand == bestLabel && u.Root < bestRoot) {
			bestLabel, bestRoot, bestEdge = cand, u.Root, msg.EdgeID
		}
	}
	if bestEdge != -1 && bestLabel < m.label {
		m.label = bestLabel
		m.root = bestRoot
		m.parentEdge = bestEdge
		m.inTree = true
		m.pendingAnnounce = true
	}
}

// processStatus digests the post-BFS exchange: learn children, detect
// outgoing links to unlabeled free nodes, and remove links internal to the
// tree that are not tree edges (the paper's message-saving rule).
func (m *rMachine) processStatus(msgs []sim.Message) (hasOutgoing bool) {
	pl := -1
	if m.inTree {
		pl = m.parentLinkIdx()
	}
	for _, msg := range msgs {
		st, ok := msg.Payload.(rpStatus)
		if ok && m.inTree && st.ParentLink {
			l := m.c.LinkOf(msg.EdgeID)
			m.childLinks = append(m.childLinks, l)
			m.links[l] |= rChild
		}
	}
	for _, msg := range msgs {
		st, ok := msg.Payload.(rpStatus)
		if !ok {
			continue
		}
		l := m.c.LinkOf(msg.EdgeID)
		switch {
		case !st.InTree:
			if m.inTree {
				hasOutgoing = true
			}
		case m.inTree && st.Root == m.root && l != pl && m.links[l]&rChild == 0:
			m.links[l] &^= rLive
		}
	}
	return hasOutgoing
}

// attemptDone ends an attempt after its final iteration: the Monte Carlo
// partition halts; the Las Vegas one verifies by scheduling the cores on
// the channel for 8√n slots via Metcalfe–Boggs, from this round.
func (m *rMachine) attemptDone() bool {
	if !m.finished {
		m.c.Failf("node %d still free after final iteration", m.c.ID())
	}
	if !m.sh.lasVegas {
		return m.halt(nil)
	}
	sq := m.sh.sqrtN
	m.verify = resolve.NewMetcalfeBoggsStep(m.c, sq, m.outcome.ParentEdge == -1, int(m.c.ID()), nil, 4*sq)
	m.verify.Begin() // the pair budget is positive: never over at once
	return false
}

// verified accepts the partition if all cores were scheduled and there are
// at most 2√n of them, and restarts it (from this round) otherwise.
func (m *rMachine) verified() bool {
	if sched := m.verify.Sched; m.verify.Done && len(sched) <= 2*m.sh.sqrtN {
		var order []graph.NodeID
		if m.c.ID() == 0 {
			order = make([]graph.NodeID, len(sched))
			for i, s := range sched {
				order[i] = graph.NodeID(s.ID)
			}
		}
		return m.halt(order)
	}
	m.restarts++
	if m.attempt+1 >= m.sh.maxRestarts {
		m.c.Failf("%w after %d attempts", ErrLasVegasRestarts, m.sh.maxRestarts)
	}
	m.attempt++
	m.reset()
	m.verify = nil
	m.iter, m.pos = 0, 1
	m.send(0)
	return false
}

// halt records the outcome (and, at node 0, the run's info).
func (m *rMachine) halt(rootOrder []graph.NodeID) bool {
	m.result = m.outcome
	if m.c.ID() == 0 {
		m.sh.info = RandomizedInfo{Iterations: len(m.sh.probs), Restarts: m.restarts, RootOrder: rootOrder}
	}
	return true
}

func (m *rMachine) Result() any { return m.result }

// runRandomized runs the Monte Carlo partition, or with lasVegas the
// verified one, restarting at most maxRestarts times.
func runRandomized(g graph.Topology, seed int64, lasVegas bool, maxRestarts int) (*forest.Forest, *sim.Metrics, *RandomizedInfo, error) {
	sq := SqrtN(g.N())
	sh := &randShared{
		sqrtN:       sq,
		dmax:        4 * sq,
		cut:         2 * sq,
		iterLen:     3*4*sq + 8,
		probs:       iterationProbs(sq),
		lasVegas:    lasVegas,
		maxRestarts: maxRestarts,
	}
	f, met, err := runAndBuild(g, sh.program, sim.WithSeed(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	info := sh.info
	return f, met, &info, nil
}

// Randomized runs the Monte Carlo randomized partition (§4) and returns the
// spanning forest, the run's metrics, and auxiliary info.
func Randomized(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *RandomizedInfo, error) {
	return runRandomized(g, seed, false, 1)
}

// RandomizedLasVegas runs the Las Vegas variant: the partition is verified
// by scheduling the cores on the channel and restarted until at most 2√n
// trees were produced, so the returned forest always satisfies the balance
// bound. The verified core schedule is returned in the info.
func RandomizedLasVegas(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *RandomizedInfo, error) {
	return runRandomized(g, seed, true, 50)
}
