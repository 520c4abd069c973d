package globalfunc

// stepsum.go is the step machine of the point-to-point census /
// global-function baseline (the §5.2 lower-bound model): build a BFS tree
// from the distinguished leader, convergecast partials, broadcast the
// result. Being message-driven, every node sleeps whenever no message can
// change its state, which runs whole 10⁶-node networks: the engine's cost
// is O(n + m) node-steps, not O(n · diameter).

import (
	"encoding/gob"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// P2PStepProgram returns the point-to-point baseline protocol run by
// PointToPoint, for callers that drive sim.RunStep or sim.Resume directly.
// Machines are drawn from one contiguous slab sized to the network
// (individual allocations past its capacity serve crash-restart revivals),
// so a 10⁸-node census costs one machine-sized block per node in a single
// allocation, not 10⁸ separate heap objects.
func P2PStepProgram(op Op, in Inputs) sim.StepProgram {
	sh := &p2pShared{op: op}
	return func(c *sim.StepCtx) sim.Machine {
		m := sh.slab.Alloc(c.N())
		*m = p2pMachine{
			c:          c,
			sh:         sh,
			partial:    in(c.ID()),
			parentLink: -1,
		}
		if c.ID() == 0 {
			m.flags = p2pAdopted
		}
		return m
	}
}

// p2pShared is the per-program state every p2pMachine points at: the
// operator (one copy instead of an interface header per node) and the
// machine slab.
type p2pShared struct {
	op   Op
	slab sim.Slab[p2pMachine]
}

// p2pMachine flag bits (the protocol's former bool fields).
const (
	p2pAdopted uint8 = 1 << iota
	p2pExplored
	p2pSentUp
	p2pResultSet
)

// p2pMachine is one node's state in the BFS-tree aggregate, stepped once
// per round. The layout is compact (64 bytes) because at census scale the
// machines are the engine's dominant per-node cost: child links are a
// bitmask over local link indices — with a rare overflow list for links
// ≥ 64, allocated behind a pointer only on nodes that need it — and the
// booleans pack into flags.
type p2pMachine struct {
	c  *sim.StepCtx
	sh *p2pShared

	partial     int64
	result      int64
	childMask   uint64   // child links with local index < 64
	childOver   *[]int32 // child links ≥ 64 (high-degree hubs), ascending
	parentLink  int32
	acksPending int32
	reports     int32
	childCount  int32
	flags       uint8
}

func (m *p2pMachine) addChild(l int) {
	if l < 64 {
		m.childMask |= uint64(1) << l
	} else {
		if m.childOver == nil {
			m.childOver = new([]int32)
		}
		*m.childOver = append(*m.childOver, int32(l))
	}
	m.childCount++
}

// forEachChild visits the child links in ascending link order.
func (m *p2pMachine) forEachChild(f func(l int)) {
	for mask := m.childMask; mask != 0; mask &= mask - 1 {
		f(bits.TrailingZeros64(mask))
	}
	if m.childOver != nil {
		for _, l := range *m.childOver {
			f(int(l))
		}
	}
}

// explore sends the BFS wavefront on every link except those named by the
// skip set — a bitmask over links < 64 plus a map for a high-degree hub's
// rest, so the common case stays allocation-free.
func (m *p2pMachine) explore(skipMask uint64, skipBig map[int]bool) {
	for l := 0; l < m.c.Degree(); l++ {
		if l < 64 && skipMask&(uint64(1)<<l) != 0 {
			continue
		}
		if l >= 64 && skipBig[l] {
			continue
		}
		m.c.Send(l, p2pExplore{})
		m.acksPending++
	}
	m.flags |= p2pExplored
}

func (m *p2pMachine) forward(v int64) {
	// Open-coded mask walk: forEachChild's closure would be a per-call
	// allocation on the one path every interior node runs.
	for mask := m.childMask; mask != 0; mask &= mask - 1 {
		m.c.Send(bits.TrailingZeros64(mask), p2pResult{V: v})
	}
	if m.childOver != nil {
		for _, l := range *m.childOver {
			m.c.Send(int(l), p2pResult{V: v})
		}
	}
	m.result = v
	m.flags |= p2pResultSet
}

func (m *p2pMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		if m.c.ID() == 0 {
			m.explore(0, nil)
		}
		return m.finishRound()
	}

	// Adoption: among this round's explores pick the least sender. Links
	// that carried an explore this round lead to nodes that are already
	// adopted, so exploring them is pointless and would collide with the
	// mandatory ack on the same link.
	//
	// Each explore's link is resolved once, here, and kept for its ack
	// below; an inbox of up to 8 messages keeps the links on the stack.
	bestLink := -1
	var bestFrom graph.NodeID
	var skipMask uint64
	var skipBig map[int]bool
	var linkBuf [8]int
	links := linkBuf[:]
	if len(in.Msgs) > len(linkBuf) {
		links = make([]int, len(in.Msgs))
	}
	for i, msg := range in.Msgs {
		if _, ok := msg.Payload.(p2pExplore); ok {
			l := m.c.LinkOf(msg.EdgeID)
			links[i] = l
			if l < 64 {
				skipMask |= uint64(1) << l
			} else {
				if skipBig == nil {
					skipBig = make(map[int]bool, 2)
				}
				skipBig[l] = true
			}
			if bestLink == -1 || msg.From < bestFrom {
				bestLink, bestFrom = l, msg.From
			}
		}
	}
	adoptedNow := false
	if bestLink != -1 && m.flags&p2pAdopted == 0 {
		m.flags |= p2pAdopted
		adoptedNow = true
		m.parentLink = int32(bestLink)
		m.explore(skipMask, skipBig)
	}
	parentLinkBusy := false
	for i, msg := range in.Msgs {
		switch p := msg.Payload.(type) {
		case p2pExplore:
			l := links[i]
			m.c.Send(l, p2pAck{Child: adoptedNow && int32(l) == m.parentLink})
			if int32(l) == m.parentLink {
				parentLinkBusy = true
			}
		case p2pAck:
			m.acksPending--
			if p.Child {
				m.addChild(m.c.LinkOf(msg.EdgeID))
			}
		case p2pValue:
			m.partial = m.sh.op.Combine(m.partial, p.V)
			m.reports++
		case p2pResult:
			m.forward(p.V)
		}
	}
	// Convergecast once the child set is final and all children reported;
	// wait a round if the ack already used the parent link.
	if m.upReady() && !parentLinkBusy {
		m.flags |= p2pSentUp
		if m.c.ID() == 0 {
			m.forward(m.partial)
		} else {
			m.c.Send(int(m.parentLink), p2pValue{V: m.partial})
		}
	}
	return m.finishRound()
}

// upReady reports whether the deferred convergecast send may fire — the one
// state change that can happen in a round with no incoming messages.
func (m *p2pMachine) upReady() bool {
	return m.flags&p2pAdopted != 0 && m.flags&p2pExplored != 0 &&
		m.acksPending == 0 && m.flags&p2pSentUp == 0 &&
		m.reports == m.childCount
}

// finishRound halts once the result is known and every explore is
// acknowledged, and parks the node whenever only a message can change its
// state.
func (m *p2pMachine) finishRound() bool {
	if m.flags&p2pResultSet != 0 && m.acksPending == 0 {
		return true
	}
	if !m.upReady() {
		m.c.Sleep()
	}
	return false
}

func (m *p2pMachine) Result() any { return m.result }

// p2pState is the checkpointable image of p2pMachine: every round-to-round
// field, exported for gob. The op and StepCtx are reconstruction-time state
// and stay out of the snapshot.
type p2pState struct {
	Partial     int64
	Adopted     bool
	Explored    bool
	SentUp      bool
	ParentLink  int
	AcksPending int
	ChildLinks  []int
	Reports     int
	Result      int64
	ResultSet   bool
}

// SnapshotState implements sim.Snapshotter: the returned state is a deep
// copy, so the machine may keep mutating after capture. The wire struct
// predates the bitmask layout (ChildLinks is a plain []int), keeping old
// checkpoints restorable; the mask round-trips through it in ascending link
// order, which is deterministic across worker counts.
func (m *p2pMachine) SnapshotState() any {
	var children []int
	m.forEachChild(func(l int) { children = append(children, l) })
	return p2pState{
		Partial:     m.partial,
		Adopted:     m.flags&p2pAdopted != 0,
		Explored:    m.flags&p2pExplored != 0,
		SentUp:      m.flags&p2pSentUp != 0,
		ParentLink:  int(m.parentLink),
		AcksPending: int(m.acksPending),
		ChildLinks:  children,
		Reports:     int(m.reports),
		Result:      m.result,
		ResultSet:   m.flags&p2pResultSet != 0,
	}
}

// RestoreState implements sim.Snapshotter.
func (m *p2pMachine) RestoreState(state any) {
	s := state.(p2pState)
	m.partial = s.Partial
	m.flags = 0
	if s.Adopted {
		m.flags |= p2pAdopted
	}
	if s.Explored {
		m.flags |= p2pExplored
	}
	if s.SentUp {
		m.flags |= p2pSentUp
	}
	if s.ResultSet {
		m.flags |= p2pResultSet
	}
	m.parentLink = int32(s.ParentLink)
	m.acksPending = int32(s.AcksPending)
	m.childMask, m.childOver, m.childCount = 0, nil, 0
	for _, l := range s.ChildLinks {
		m.addChild(l)
	}
	m.reports = int32(s.Reports)
	m.result = s.Result
}

func init() {
	// Everything this protocol can put in a checkpoint's `any` fields:
	// machine state and the four wire payloads (in-flight messages live in
	// checkpointed inboxes and delay buffers).
	gob.Register(p2pState{})
	gob.Register(p2pExplore{})
	gob.Register(p2pAck{})
	gob.Register(p2pValue{})
	gob.Register(p2pResult{})
}
