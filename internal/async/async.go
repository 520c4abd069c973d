// Package async implements §7.1: the multiaccess channel as a synchronizer
// for an asynchronous point-to-point network.
//
// The engine is an event-driven discrete simulator. Point-to-point messages
// experience arbitrary (seeded) delays of at most one time unit; the channel
// is slotted with slots of one time unit. The synchronizer protocol is the
// paper's: every algorithm message is acknowledged, a node keeps a busy tone
// on the channel while any of its messages is unacknowledged, and an idle
// slot — heard by everyone simultaneously — is a clock pulse that starts the
// next simulated synchronous round. Synchronous algorithms therefore run
// unchanged: each node's RoundFunc is invoked once per pulse with the
// messages sent to it in the previous round.
//
// Corollary 4's claims are directly measurable: acknowledgements at most
// double the message complexity, and each simulated round costs a constant
// number of time units.
package async

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Slot is the number of engine ticks per channel slot (and per maximum
// message delay). Delays are integers in [1, Slot].
const Slot = 1000

// Message is an algorithm message as seen by its recipient.
type Message struct {
	From    graph.NodeID
	EdgeID  int
	Payload any
}

// RoundFunc is a synchronous algorithm: invoked at every clock pulse with
// the round number and the messages sent to this node in the previous
// round. State lives in per-node closures created by the factory passed to
// Run (or to Sync in sync.go).
type RoundFunc func(api Port, round int, inbox []Message)

// Port is the node handle a RoundFunc drives: implemented by this package's
// event-driven engine (NodeAPI) and by the synchronizer ports of sync.go
// that run the same RoundFunc on either sim engine.
type Port interface {
	ID() graph.NodeID
	N() int
	Adj() []graph.Half
	Degree() int
	Send(link int, payload any)
	SendTo(to graph.NodeID, payload any)
	Halt()
}

// NodeAPI is a node's handle during a round callback.
type NodeAPI struct {
	id     graph.NodeID
	eng    *engine
	halted bool
}

// ID returns this node's identifier.
func (a *NodeAPI) ID() graph.NodeID { return a.id }

// N returns the network size.
func (a *NodeAPI) N() int { return a.eng.g.N() }

// Adj returns this node's weight-ordered incident links.
func (a *NodeAPI) Adj() []graph.Half { return a.eng.g.Adj(a.id) }

// Degree returns the number of incident links.
func (a *NodeAPI) Degree() int { return a.eng.g.Degree(a.id) }

// Send transmits a message on the link with the given local index; it is
// delivered after a random delay of at most one time unit and acknowledged
// by the §7.1 protocol.
func (a *NodeAPI) Send(link int, payload any) {
	h := a.eng.g.Adj(a.id)[link]
	a.eng.send(a.id, h.To, int(h.EdgeID), payload)
}

// SendTo transmits to the given neighbor.
func (a *NodeAPI) SendTo(to graph.NodeID, payload any) {
	for l, h := range a.eng.g.Adj(a.id) {
		if h.To == to {
			a.Send(l, payload)
			return
		}
	}
	panic(fmt.Sprintf("async: node %d is not adjacent to %d", a.id, to))
}

// Halt removes this node from the computation after the current round.
func (a *NodeAPI) Halt() {
	if !a.halted {
		a.halted = true
		a.eng.alive--
	}
}

// Metrics aggregates an asynchronous run's costs.
type Metrics struct {
	Time      int64 // elapsed time units (slots)
	Rounds    int   // simulated synchronous rounds (clock pulses consumed)
	AlgMsgs   int64 // algorithm messages
	AckMsgs   int64 // synchronizer acknowledgements
	BusySlots int64
	IdleSlots int64
}

// Overhead returns the message overhead factor of the synchronizer
// (Corollary 4 bounds it by 2).
func (m *Metrics) Overhead() float64 {
	if m.AlgMsgs == 0 {
		return 1
	}
	return float64(m.AlgMsgs+m.AckMsgs) / float64(m.AlgMsgs)
}

// event kinds, ordered so that deliveries at a slot boundary precede the
// boundary's pulse decision.
const (
	evArrival = iota
	evAck
	evBoundary
)

type event struct {
	time int64
	kind int
	seq  int64 // FIFO tie-break for determinism
	// arrival / ack payload:
	from, to graph.NodeID
	edgeID   int
	payload  any
	sentAt   int64
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type engine struct {
	g      graph.Topology
	rng    *rand.Rand
	queue  eventQueue
	seq    int64
	now    int64
	inbox  [][]Message // buffered for the next pulse
	apis   []*NodeAPI
	rounds []RoundFunc
	alive  int
	met    Metrics
	// busySlots[s] is true if slot s overlapped a completed unacked
	// interval; outstanding counts messages whose ack has not yet arrived,
	// covering intervals still in flight at a boundary.
	busySlots   map[int64]bool
	outstanding int
}

// ErrRoundBudget is returned when the pulse budget is exhausted (a node
// neither sending nor halting forever).
var ErrRoundBudget = errors.New("async: round budget exhausted")

// Run executes the synchronous algorithm produced by factory on an
// asynchronous network driven by the channel synchronizer. factory is
// called once per node and returns that node's RoundFunc (a closure owning
// its state). maxRounds bounds the number of pulses.
func Run(g graph.Topology, seed int64, maxRounds int, factory func(id graph.NodeID) RoundFunc) (*Metrics, error) {
	eng := &engine{
		g:         g,
		rng:       rand.New(rand.NewSource(seed)),
		inbox:     make([][]Message, g.N()),
		apis:      make([]*NodeAPI, g.N()),
		rounds:    make([]RoundFunc, g.N()),
		alive:     g.N(),
		busySlots: make(map[int64]bool),
	}
	for v := 0; v < g.N(); v++ {
		eng.apis[v] = &NodeAPI{id: graph.NodeID(v), eng: eng}
		eng.rounds[v] = factory(graph.NodeID(v))
	}
	heap.Init(&eng.queue)

	// Round 0 fires immediately at time 0 with empty inboxes.
	round := 0
	eng.dispatchRound(round)
	boundary := int64(Slot)
	eng.push(&event{time: boundary, kind: evBoundary})

	for eng.alive > 0 {
		if eng.queue.Len() == 0 {
			return nil, errors.New("async: event queue drained with live nodes")
		}
		e := heap.Pop(&eng.queue).(*event)
		eng.now = e.time
		switch e.kind {
		case evArrival:
			eng.met.AlgMsgs++
			eng.inbox[e.to] = append(eng.inbox[e.to], Message{From: e.from, EdgeID: e.edgeID, Payload: e.payload})
			// Acknowledge immediately; the ack travels back with its own delay.
			eng.push(&event{time: e.time + eng.delay(), kind: evAck, from: e.to, to: e.from, sentAt: e.sentAt})
		case evAck:
			eng.met.AckMsgs++
			eng.outstanding--
			// The sender's busy interval [sentAt, now] keeps those slots busy.
			for s := e.sentAt / Slot; s <= e.time/Slot; s++ {
				eng.busySlots[s] = true
			}
		case evBoundary:
			s := e.time/Slot - 1
			if eng.busySlots[s] || eng.outstanding > 0 {
				eng.met.BusySlots++
				delete(eng.busySlots, s)
			} else {
				eng.met.IdleSlots++
				round++
				if round > maxRounds {
					return nil, fmt.Errorf("%w: %d", ErrRoundBudget, maxRounds)
				}
				eng.dispatchRound(round)
			}
			if eng.alive > 0 {
				eng.push(&event{time: e.time + Slot, kind: evBoundary})
			}
		}
	}
	eng.met.Time = (eng.now + Slot - 1) / Slot
	eng.met.Rounds = round + 1
	return &eng.met, nil
}

func (eng *engine) push(e *event) {
	eng.seq++
	e.seq = eng.seq
	heap.Push(&eng.queue, e)
}

func (eng *engine) delay() int64 { return 1 + eng.rng.Int63n(Slot) }

func (eng *engine) send(from, to graph.NodeID, edgeID int, payload any) {
	t := eng.now + eng.delay()
	// The sender is busy from now until the ack returns; mark the sending
	// slot immediately (the ack handler extends the range, and the
	// outstanding counter covers boundaries crossed while in flight).
	eng.busySlots[eng.now/Slot] = true
	eng.outstanding++
	eng.push(&event{time: t, kind: evArrival, from: from, to: to, edgeID: edgeID, payload: payload, sentAt: eng.now})
}

func (eng *engine) dispatchRound(round int) {
	boxes := make([][]Message, len(eng.inbox))
	copy(boxes, eng.inbox)
	for i := range eng.inbox {
		eng.inbox[i] = nil
	}
	for v, api := range eng.apis {
		if api.halted {
			continue
		}
		eng.rounds[v](api, round, boxes[v])
	}
}
