package async

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Synchronizer payloads.
type (
	sMsg struct{ P any } // an algorithm message
	sAck struct{}        // its §7.1 acknowledgement
)

// SyncResult is the outcome of a synchronizer-driven run.
type SyncResult struct {
	Rounds  int   // simulated synchronous rounds consumed (max over nodes)
	AlgMsgs int64 // algorithm messages
	AckMsgs int64 // synchronizer acknowledgements
	Metrics sim.Metrics
}

// Overhead returns the message overhead factor of the synchronizer
// (Corollary 4 bounds it by 2).
func (r *SyncResult) Overhead() float64 {
	if r.AlgMsgs == 0 {
		return 1
	}
	return float64(r.AlgMsgs+r.AckMsgs) / float64(r.AlgMsgs)
}

// syncPort is the Port a node's RoundFunc drives: algorithm sends go out
// wrapped as sMsg and are counted until acknowledged.
type syncPort struct {
	c       *sim.StepCtx
	g       graph.Topology
	halted  bool
	algSent int64
	ackSent int64
	pending int // staged sends awaiting acknowledgement
}

func (p *syncPort) ID() graph.NodeID  { return p.c.ID() }
func (p *syncPort) N() int            { return p.g.N() }
func (p *syncPort) Adj() []graph.Half { return p.g.Adj(p.c.ID()) }
func (p *syncPort) Degree() int       { return p.g.Degree(p.c.ID()) }
func (p *syncPort) Halt()             { p.halted = true }

func (p *syncPort) Send(link int, payload any) {
	p.c.Send(link, sMsg{P: payload})
	p.algSent++
	p.pending++
}

func (p *syncPort) SendTo(to graph.NodeID, payload any) {
	for l, h := range p.Adj() {
		if h.To == to {
			p.Send(l, payload)
			return
		}
	}
	panic(fmt.Sprintf("async: node %d is not adjacent to %d", p.c.ID(), to))
}

// syncMachine is one node of the synchronizer-driven run. One barrier step
// spans one simulated round: the round function fires on the step's entry
// round, acknowledgements flow during it, and the pulse that ends it starts
// the next simulated round. Passive nodes park with the barrier's
// pulse-sleep.
type syncMachine struct {
	port        syncPort
	b           *sim.StepBarrier
	rf          RoundFunc
	maxRounds   int
	round       int
	invoked     bool
	outstanding int
	inbox       []sim.Message
	nextInbox   []sim.Message
	result      any
}

func (m *syncMachine) Step(in sim.Input) bool {
	if !m.b.Step(in, m.handle) {
		return false
	}
	// The pulse: advance the simulated clock.
	m.round++
	m.inbox, m.nextInbox = m.nextInbox, nil
	if m.port.halted {
		m.result = [3]int64{m.port.algSent, m.port.ackSent, int64(m.round)}
		return true
	}
	if m.round > m.maxRounds {
		m.port.c.Failf("%w: %d", ErrRoundBudget, m.maxRounds)
	}
	// The next simulated round's function fires in the pulse round: the
	// pulse that ends one barrier step opens the next.
	m.invoked = false
	m.b.Step(in, m.handle)
	return false
}

// handle is the barrier handler: acknowledge arrivals, collect the next
// round's inbox, fire the round function once per step, and stay busy while
// any own message is unacknowledged.
func (m *syncMachine) handle(step sim.Input) bool {
	for _, msg := range step.Msgs {
		switch p := msg.Payload.(type) {
		case sMsg:
			m.nextInbox = append(m.nextInbox, sim.Message{From: msg.From, EdgeID: msg.EdgeID, Payload: p.P})
			m.port.c.Send(m.port.c.LinkOf(msg.EdgeID), sAck{})
			m.port.ackSent++
		case sAck:
			m.outstanding--
		}
	}
	if !m.invoked {
		m.invoked = true
		m.port.pending = 0
		m.rf(&m.port, m.round, m.inbox)
		m.outstanding += m.port.pending
	}
	return m.outstanding > 0
}

func (m *syncMachine) Result() any { return m.result }

func syncStepProgram(g graph.Topology, maxRounds int, factory func(id graph.NodeID) RoundFunc) sim.StepProgram {
	return func(c *sim.StepCtx) sim.Machine {
		return &syncMachine{
			port:      syncPort{c: c, g: g},
			b:         sim.NewStepBarrier(c),
			rf:        factory(c.ID()),
			maxRounds: maxRounds,
		}
	}
}

// Sync executes the synchronous algorithm produced by factory, driven by
// the §7.1 channel synchronizer. factory is called once per node and
// returns that node's RoundFunc; maxRounds bounds the number of simulated
// rounds. The engine run takes its fault plan, worker count, recorder and
// round budget from sim's process defaults (sim.DefaultFaults and the rest).
func Sync(g graph.Topology, seed int64, maxRounds int, factory func(id graph.NodeID) RoundFunc) (*SyncResult, error) {
	// WithSynchronizer unlocks skew: rules — clock skew is meaningful only
	// at this layer, where a slot is a tick of the §7.1 clock.
	res, err := sim.RunStep(g, syncStepProgram(g, maxRounds, factory), sim.WithSeed(seed), sim.WithSynchronizer())
	if err != nil {
		return nil, err
	}
	out := &SyncResult{Metrics: res.Metrics}
	for _, r := range res.Results {
		rec, ok := r.([3]int64)
		if !ok {
			continue // crash-stopped before recording
		}
		out.AlgMsgs += rec[0]
		out.AckMsgs += rec[1]
		if int(rec[2]) > out.Rounds {
			out.Rounds = int(rec[2])
		}
	}
	return out, nil
}
