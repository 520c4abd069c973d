package forest

// protocol.go grows a rooted spanning forest *distributedly*: a BFS
// explore/ack wavefront from node 0 (every node adopts the least-id
// neighbor that reached it first), a size convergecast up the adopted tree,
// and a completion broadcast back down — the §2 point-to-point machinery
// the paper's local stages assume, producing a forest.Forest instead of a
// scalar aggregate. The protocol never touches the channel, so it is pure
// point-to-point: O(diameter) rounds and O(n + m) messages.
//
// The protocol is a native step machine. Being message-driven, it sleeps
// whenever no message can change its state, which grows million-node
// forests in seconds.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Protocol payloads.
type (
	fExplore struct{} // BFS wavefront
	fAck     struct{ Child bool }
	fValue   struct{ N int } // subtree size, convergecast up
	fDone    struct{ N int } // total, broadcast down: the termination signal
)

// bfsResult is one node's final record.
type bfsResult struct {
	Parent     graph.NodeID
	ParentEdge int
	Total      int
}

// BFSStepProgram returns the protocol's step program. Machines come from a
// per-run slab — one allocation for the whole network — so million-node
// forests cost one block per node.
func BFSStepProgram() sim.StepProgram {
	var slab sim.Slab[bfsMachine]
	return func(c *sim.StepCtx) sim.Machine {
		m := slab.Alloc(c.N())
		root := c.ID() == 0
		*m = bfsMachine{c: c, root: root, adopted: root, parent: -1, parentEdge: -1, parentLink: -1, size: 1}
		return m
	}
}

// bfsMachine is one node of the protocol.
type bfsMachine struct {
	c    *sim.StepCtx
	root bool

	parent     graph.NodeID
	parentEdge int
	parentLink int

	adopted     bool
	explored    bool
	sentUp      bool
	acksPending int
	childLinks  []int
	reports     int
	size        int

	total    int
	resultIn bool
}

func (m *bfsMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		if m.root {
			m.explore(0, nil)
		}
	} else if m.step(in) {
		return true
	}
	// Park whenever only a message can change the node's state.
	if !m.upReady() {
		m.c.Sleep()
	}
	return false
}

func (m *bfsMachine) Result() any {
	return bfsResult{Parent: m.parent, ParentEdge: m.parentEdge, Total: m.total}
}

// explore sends the wavefront on every link except those named by the skip
// set — a bitmask over links < 64 plus a map for a high-degree hub's rest,
// so the common case stays allocation-free.
func (m *bfsMachine) explore(skipMask uint64, skipBig map[int]bool) {
	for l := 0; l < m.c.Degree(); l++ {
		if l < 64 && skipMask&(uint64(1)<<l) != 0 {
			continue
		}
		if l >= 64 && skipBig[l] {
			continue
		}
		m.c.Send(l, fExplore{})
		m.acksPending++
	}
	m.explored = true
}

func (m *bfsMachine) forward(v int) {
	for _, l := range m.childLinks {
		m.c.Send(l, fDone{N: v})
	}
	m.total, m.resultIn = v, true
}

// step consumes one round's input; true means the node is finished.
func (m *bfsMachine) step(in sim.Input) (halt bool) {
	// Adoption: among this round's explores pick the least sender; links
	// that carried an explore lead to already-adopted nodes. Each explore's
	// link is resolved once, here, and kept for its ack below; an inbox of
	// up to 8 messages keeps the links on the stack.
	bestLink := -1
	bestEdge := -1
	var bestFrom graph.NodeID
	var skipMask uint64
	var skipBig map[int]bool
	var linkBuf [8]int
	links := linkBuf[:]
	if len(in.Msgs) > len(linkBuf) {
		links = make([]int, len(in.Msgs))
	}
	for i, msg := range in.Msgs {
		if _, ok := msg.Payload.(fExplore); ok {
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
				bestLink, bestEdge, bestFrom = l, msg.EdgeID, msg.From
			}
		}
	}
	adoptedNow := false
	if bestLink != -1 && !m.adopted {
		m.adopted, adoptedNow = true, true
		m.parentLink, m.parentEdge, m.parent = bestLink, bestEdge, bestFrom
		m.explore(skipMask, skipBig)
	}
	parentLinkBusy := false
	for i, msg := range in.Msgs {
		switch p := msg.Payload.(type) {
		case fExplore:
			l := links[i]
			m.c.Send(l, fAck{Child: adoptedNow && l == m.parentLink})
			if l == m.parentLink {
				parentLinkBusy = true
			}
		case fAck:
			m.acksPending--
			if p.Child {
				m.childLinks = append(m.childLinks, m.c.LinkOf(msg.EdgeID))
			}
		case fValue:
			m.size += p.N
			m.reports++
		case fDone:
			m.forward(p.N)
		}
	}
	// Convergecast once the child set is final and all children reported;
	// wait a round if the ack already used the parent link.
	if m.upReady() && !parentLinkBusy {
		m.sentUp = true
		if m.root {
			m.forward(m.size)
		} else {
			m.c.Send(m.parentLink, fValue{N: m.size})
		}
	}
	return m.resultIn && m.acksPending == 0
}

func (m *bfsMachine) upReady() bool {
	return m.adopted && m.explored && m.acksPending == 0 && !m.sentUp &&
		m.reports == len(m.childLinks)
}

// BFS grows the spanning forest of g from node 0 and validates it. Every
// node also learns n (the convergecast total), returned for
// cross-checking.
func BFS(g graph.Topology, seed int64) (*Forest, int, sim.Metrics, error) {
	res, err := sim.RunStep(g, BFSStepProgram(), sim.WithSeed(seed))
	if err != nil {
		return nil, 0, sim.Metrics{}, fmt.Errorf("forest: bfs: %w", err)
	}
	n := g.N()
	parent := make([]graph.NodeID, n)
	parentEdge := make([]int, n)
	total := 0
	totalSet := false
	for v, r := range res.Results {
		rec, ok := r.(bfsResult)
		if !ok {
			// Crash-stopped before recording: the node ends up a root of its
			// own (possibly trivial) tree.
			parent[v], parentEdge[v] = -1, -1
			continue
		}
		parent[v], parentEdge[v] = rec.Parent, rec.ParentEdge
		if !totalSet {
			total, totalSet = rec.Total, true
		} else if rec.Total != total {
			return nil, 0, sim.Metrics{}, fmt.Errorf("forest: node %d learned total %d, others %d", v, rec.Total, total)
		}
	}
	f, err := New(g, parent, parentEdge)
	if err != nil {
		return nil, 0, sim.Metrics{}, err
	}
	if res.Metrics.Slots() != 0 {
		return nil, 0, sim.Metrics{}, fmt.Errorf("forest: bfs touched the channel")
	}
	return f, total, res.Metrics, nil
}
