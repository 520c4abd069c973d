package partition

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// The per-round handlers of a phase's barrier steps. Each runs once per
// round the node is awake in the step; a node that reports itself inactive
// and stages nothing is parked until a message or the step's pulse wakes
// it, so every state change below is driven by a message or by the step's
// first round (which every node observes: it is a pulse round).

// countRound is Step 1's broadcast-and-respond: every core learns its
// fragment size. Leaves respond immediately; inner nodes respond once all
// children have.
func (nd *dNode) countRound(in sim.Input) {
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dCount:
			nd.started = true
			nd.sendChildren(dCount{})
		case dSize:
			nd.reports++
			nd.sum += p.N
		}
	}
	if nd.isCore() && !nd.started {
		nd.started = true
		nd.sendChildren(dCount{})
	}
	if nd.started && !nd.replied && nd.reports == nd.children {
		nd.replied = true
		if nd.isCore() {
			nd.size = nd.sum
		} else {
			nd.c.Send(nd.parentLink, dSize{N: nd.sum})
		}
	}
}

// bcastRound floods a payload from the core to its whole fragment: the
// activity flags (opActive), the drop decision (opDrop) or the new fragment
// name (opNewFrag). Other message types arriving in the same step (unhooks
// crossing fragments) are merely observed.
func (nd *dNode) bcastRound(in sim.Input, op stepOp) {
	for _, m := range in.Msgs {
		if nd.bcastOn(op, m) && !nd.started {
			nd.started = true
			nd.sendChildren(m.Payload)
		}
	}
	if nd.isCore() && !nd.started {
		nd.started = true
		if p := nd.bcastStart(op); p != nil {
			nd.bcastOn(op, sim.Message{From: nd.c.ID(), EdgeID: -1, Payload: p})
			nd.sendChildren(p)
		}
	}
}

// bcastStart is the core's broadcast value (nil: stay silent).
func (nd *dNode) bcastStart(op stepOp) sim.Payload {
	switch op {
	case opActive:
		// Active iff ⌊log2 size⌋ == phase; done iff the fragment spans the
		// whole network.
		level := bits.Len(uint(nd.size)) - 1
		return dActive{Active: level == nd.phase, Done: nd.size == nd.c.N()}
	case opDrop:
		return dDrop{Drop: nd.dropOut}
	default:
		if nd.inF {
			return dNewFrag{Core: nd.newCore}
		}
		return nil
	}
}

// bcastOn applies one received message and reports whether it is the
// broadcast value to forward. The core sees its own value with EdgeID -1.
func (nd *dNode) bcastOn(op stepOp, m sim.Message) bool {
	switch p := m.Payload.(type) {
	case dActive:
		if op != opActive {
			return false
		}
		nd.active = p.Active
		nd.done = p.Done
		return true
	case dDrop:
		if op != opDrop {
			return false
		}
		// A dropping fragment's chosen node unhooks across.
		nd.dropOut = p.Drop
		if p.Drop && nd.chosen {
			nd.c.Send(nd.c.LinkOf(nd.outEdge), dUnhook{})
		}
		return true
	case dUnhook:
		if op == opDrop {
			if l := nd.c.LinkOf(m.EdgeID); nd.links[l]&linkHook != 0 {
				nd.links[l] &^= linkHook
				nd.hooks--
			}
		}
		return false
	case dNewFrag:
		if op != opNewFrag {
			return false
		}
		nd.frag = p.Core
		return true
	}
	return false
}

// convUpRound aggregates a value from the leaves to the core: the chosen
// node's mutuality report (opMutual, encoded as other-core-id + 1, first
// nonzero wins) or whether any hooks survive (opHasKids, OR). A node's own
// contribution is evaluated when it reports.
func (nd *dNode) convUpRound(in sim.Input, op stepOp) {
	for _, m := range in.Msgs {
		var v int64
		switch p := m.Payload.(type) {
		case dInfo:
			if op != opMutual {
				continue
			}
			if p.Mutual {
				v = int64(p.Other) + 1
			}
		case dHasKids:
			if op != opHasKids {
				continue
			}
			v = b2i64(p.Has)
		default:
			continue
		}
		nd.reports++
		if !nd.accSet {
			nd.acc, nd.accSet = v, true
		} else {
			nd.acc = convCombine(op, nd.acc, v)
		}
	}
	if nd.replied || nd.reports != nd.children {
		return
	}
	nd.replied = true
	own := b2i64(nd.hooks > 0)
	if op == opMutual {
		// Mutual iff a hook arrived on the chosen node's own out-edge.
		own = 0
		if nd.chosen {
			if l := nd.c.LinkOf(nd.outEdge); nd.links[l]&linkHook != 0 {
				own = int64(nd.hookFrom[l]) + 1
			}
		}
	}
	if !nd.accSet {
		nd.acc = own
	} else {
		nd.acc = convCombine(op, nd.acc, own)
	}
	switch {
	case !nd.isCore() && op == opMutual:
		nd.c.Send(nd.parentLink, dInfo{Mutual: nd.acc != 0, Other: graph.NodeID(nd.acc - 1)})
	case !nd.isCore():
		nd.c.Send(nd.parentLink, dHasKids{Has: nd.acc == 1})
	case op == opMutual:
		nd.mutual = nd.acc != 0
		nd.mutualOth = graph.NodeID(nd.acc - 1)
	default:
		nd.hasKids = nd.acc == 1
	}
}

func convCombine(op stepOp, a, b int64) int64 {
	if op == opHasKids {
		return a | b
	}
	if a != 0 {
		return a
	}
	return b
}

// beginMWOE sets up Step 2: nodes of active fragments test their incident
// edges in ascending weight order (GHS test/accept/reject — a rejected edge
// is intra-fragment forever and never tested again), and the minimum
// accepted edge is convergecast to the core, recording down-pointers for
// later routing. Every node, active or not, answers tests against its
// current fragment.
func (nd *dNode) beginMWOE() {
	nd.cand = dMin{Valid: false, W: noWeight}
	nd.best = dMin{Valid: false, W: noWeight}
	nd.downEdge = -1
	nd.adj = nd.c.Adj()
	nd.nextLink = 0
	nd.awaiting = -1
	nd.wantTest = -1
	nd.testDone = !nd.active
	if nd.active {
		nd.advance()
	}
}

// advance moves the sequential scan to the next untested, non-rejected,
// non-tree edge.
func (nd *dNode) advance() {
	for nd.nextLink < len(nd.adj) {
		l := nd.nextLink
		nd.nextLink++
		if nd.links[l]&(linkRejected|linkChild) != 0 || l == nd.parentLink {
			continue
		}
		nd.wantTest = int(nd.adj[l].EdgeID)
		return
	}
	nd.testDone = true // exhausted: no outgoing candidate
}

func (nd *dNode) mwoeRound(in sim.Input) bool {
	c := nd.c
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dTest:
			c.Send(c.LinkOf(m.EdgeID), dReply{Accept: p.Frag != nd.frag, Frag: nd.frag})
		case dReply:
			if m.EdgeID != nd.awaiting {
				continue
			}
			nd.awaiting = -1
			if p.Accept {
				e := c.Topo().Edge(m.EdgeID)
				nd.cand = dMin{Valid: true, W: e.Weight, Edge: m.EdgeID, Target: p.Frag}
				nd.testDone = true
			} else {
				nd.links[c.LinkOf(m.EdgeID)] |= linkRejected
				nd.advance()
			}
		case dMin:
			nd.reports++
			if p.Valid && p.W < nd.best.W {
				nd.best = p
				nd.downEdge = m.EdgeID
			}
		}
	}
	// Flush a deferred test unless this round's reply already used the
	// link (one message per link per round).
	if nd.wantTest != -1 && !repliedOn(in.Msgs, nd.wantTest) {
		c.Send(c.LinkOf(nd.wantTest), dTest{Frag: nd.frag})
		nd.awaiting = nd.wantTest
		nd.wantTest = -1
	}
	nd.reportBest()
	return (nd.active && !nd.replied) || nd.wantTest != -1
}

// repliedOn reports whether a test, and so this round's reply, came in on
// edge e.
func repliedOn(msgs []sim.Message, e int) bool {
	for _, m := range msgs {
		if _, ok := m.Payload.(dTest); ok && m.EdgeID == e {
			return true
		}
	}
	return false
}

// reportBest sends the subtree minimum up once this node's own test is
// over and every child has reported.
func (nd *dNode) reportBest() {
	if nd.replied || !nd.testDone || nd.reports != nd.children {
		return
	}
	nd.replied = true
	if nd.cand.Valid && nd.cand.W < nd.best.W {
		nd.best = nd.cand
		nd.downEdge = -1
	}
	if !nd.isCore() {
		nd.c.Send(nd.parentLink, nd.best)
	}
}

// hookRound is Step 2b: route CHOSEN from the core along the down-pointers
// to the MWOE endpoint, which hooks across the selected edge. Hooks from
// other fragments arrive during the same barrier step and are absorbed here.
func (nd *dNode) hookRound(in sim.Input) {
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dChosen:
			nd.routeChosen()
		case dHook:
			l := nd.c.LinkOf(m.EdgeID)
			if nd.links[l]&linkHook == 0 {
				nd.links[l] |= linkHook
				nd.hooks++
			}
			if nd.hookFrom == nil {
				nd.hookFrom = make([]graph.NodeID, len(nd.links))
			}
			nd.hookFrom[l] = p.Frag
		}
	}
	if nd.isCore() && nd.hasOut && !nd.started {
		nd.started = true
		nd.routeChosen()
	}
}

func (nd *dNode) routeChosen() {
	if nd.downEdge == -1 {
		nd.chosen = true
		nd.outEdge = nd.best.Edge
		nd.c.Send(nd.c.LinkOf(nd.outEdge), dHook{Frag: nd.frag})
	} else {
		nd.c.Send(nd.c.LinkOf(nd.downEdge), dChosen{})
	}
}

// pushToChildrenRound delivers each in-F core's value to the cores of all
// its F-children: broadcast down the parent's tree, forward across every
// surviving hook, then route up the child's tree to its core. Each core
// receives the value from its F-parent (ok=false at F-roots and outside F).
func (nd *dNode) pushToChildrenRound(in sim.Input, kind uint8) {
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dPushD:
			if p.Kind == kind && !nd.started {
				nd.started = true
				nd.relay(kind, p.V)
			}
		case dCross:
			// Accept only on my fragment's live out-edge.
			if p.Kind == kind && nd.chosen && !nd.dropOut && m.EdgeID == nd.outEdge {
				nd.pushUp(kind, p.V)
			}
		case dPushU:
			if p.Kind == kind {
				nd.pushUp(kind, p.V)
			}
		}
	}
	if nd.isCore() && nd.inF && !nd.started {
		nd.started = true
		nd.relay(kind, nd.value)
	}
}

// relay forwards a parent-value push down the tree and across the hooks.
func (nd *dNode) relay(kind uint8, v int64) {
	nd.sendChildren(dPushD{Kind: kind, V: v})
	for l, f := range nd.links {
		if f&linkHook != 0 {
			nd.c.Send(l, dCross{Kind: kind, V: v})
		}
	}
}

// pushUp carries a value crossing into this fragment up to its core.
func (nd *dNode) pushUp(kind uint8, v int64) {
	if nd.isCore() {
		nd.got, nd.ok = v, true
	} else {
		nd.c.Send(nd.parentLink, dPushU{Kind: kind, V: v})
	}
}

// pushToParentRound delivers each non-root in-F core's value to its
// F-parent's core: route down to the chosen node, across the MWOE, then
// aggregate up the parent's tree with the associative combine. Each core
// receives the aggregate over its F-children (ok=false if it has none).
func (nd *dNode) pushToParentRound(in sim.Input, kind uint8, combine func(a, b int64) int64) {
	var up int64 // aggregate to forward toward the core this round
	hasUp := false
	for _, m := range in.Msgs {
		p, isChild := m.Payload.(dChildU)
		if !isChild || p.Kind != kind {
			continue
		}
		switch {
		case m.EdgeID == nd.parentEdge:
			// Traveling down my own fragment toward the chosen node.
			nd.routeDown(kind, p.V)
		case !hasUp:
			// Arriving from a hook or a tree child: aggregate upward.
			up, hasUp = p.V, true
		default:
			up = combine(up, p.V)
		}
	}
	if nd.isCore() && nd.inF && !nd.isFRoot && nd.keepsOut() && !nd.started {
		nd.started = true
		if nd.downEdge == -1 && nd.chosen {
			nd.c.Send(nd.c.LinkOf(nd.outEdge), dChildU{Kind: kind, V: nd.value})
		} else {
			nd.routeDown(kind, nd.value)
		}
	}
	if !hasUp {
		return
	}
	switch {
	case !nd.isCore():
		nd.c.Send(nd.parentLink, dChildU{Kind: kind, V: up})
	case !nd.ok:
		nd.got, nd.ok = up, true
	default:
		nd.got = combine(nd.got, up)
	}
}

// routeDown forwards a child-value push toward the chosen node, and across
// the MWOE from there.
func (nd *dNode) routeDown(kind uint8, v int64) {
	if nd.downEdge == -1 { // I am the chosen endpoint
		nd.c.Send(nd.c.LinkOf(nd.outEdge), dChildU{Kind: kind, V: v})
	} else {
		nd.c.Send(nd.c.LinkOf(nd.downEdge), dChildU{Kind: kind, V: v})
	}
}

// rerootRound is Step 7b: each fragment that kept its out-edge re-roots at
// the chosen node (flipping parent pointers along the core→chosen path) and
// attaches across the MWOE; hooked nodes add the cross edge as a child.
func (nd *dNode) rerootRound(in sim.Input) {
	for _, m := range in.Msgs {
		switch m.Payload.(type) {
		case dReroot:
			nd.flip()
		case dAttach:
			nd.setChild(nd.c.LinkOf(m.EdgeID), true)
		}
	}
	if nd.keepOut && !nd.started {
		nd.started = true
		nd.flip()
	}
}

func (nd *dNode) flip() {
	if nd.parentEdge != -1 {
		nd.setChild(nd.parentLink, true)
	}
	if nd.downEdge == -1 {
		// I am the chosen node: attach across.
		nd.parentEdge, nd.parentLink = nd.outEdge, nd.c.LinkOf(nd.outEdge)
		nd.c.Send(nd.parentLink, dAttach{})
	} else {
		nd.c.Send(nd.c.LinkOf(nd.downEdge), dReroot{})
		nd.parentEdge, nd.parentLink = nd.downEdge, nd.c.LinkOf(nd.downEdge)
		nd.setChild(nd.parentLink, false)
	}
}

func smallestColorExcept(c int64) int64 {
	for x := int64(0); ; x++ {
		if x != c {
			return x
		}
	}
}

func thirdColor(a, b int64) int64 {
	for x := int64(0); x < 3; x++ {
		if x != a && x != b {
			return x
		}
	}
	return -1
}

// encodeRootColor packs (isRoot, color) into one int64 for the Step 4 push.
func encodeRootColor(isRoot bool, color int64) int64 {
	v := color << 1
	if isRoot {
		v |= 1
	}
	return v
}

func decodeRootColor(v int64) (isRoot bool, color int64) {
	return v&1 == 1, v >> 1
}

func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
