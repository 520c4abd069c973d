package snapshot

// step.go is the snapshot protocol as a step-machine component: the §2
// election component resolves contending initiators, and the round in which
// its final slot is heard — the same round at every node — is the cut. No
// point-to-point message can be in flight across the cut boundary for
// protocols that are quiescent while snapshotting; for running applications
// the cut is simply a common round index, which is all a synchronous
// consistent cut needs.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// TakeStep is the snapshot sub-protocol, for embedding in a sim.Machine.
// Every node must Begin in the same round; Begin starts the protocol in the
// current round, and Poll consumes each subsequent round until it reports
// done, after which Cut and OK hold the result — identical at every node.
// When at least one node triggers, the record callback fires exactly once
// at every node, on the cut round; otherwise OK is false.
type TakeStep struct {
	Cut Cut
	OK  bool

	e      *resolve.ElectionStep
	record func(round int)
}

// NewTakeStep returns the component in its pre-Begin state; trigger marks
// this node as wanting a snapshot.
func NewTakeStep(c *sim.StepCtx, trigger bool, record func(round int)) *TakeStep {
	return &TakeStep{e: resolve.NewElectionStep(c, c.N(), trigger, int(c.ID())), record: record}
}

// Begin stages the election's liveness slot.
func (s *TakeStep) Begin() { s.e.Begin() }

// Poll consumes one slot outcome; done means the protocol is over.
func (s *TakeStep) Poll(in sim.Input) (done bool) {
	if !s.e.Poll(in) {
		return false
	}
	if !s.e.OK {
		return true
	}
	s.Cut = Cut{Initiator: graph.NodeID(s.e.Leader), Round: in.Round}
	s.OK = true
	s.record(s.Cut.Round)
	return true
}

// snapMachine runs one whole-network snapshot with node 0 triggering.
type snapMachine struct {
	c   *sim.StepCtx
	t   *TakeStep
	cut any
}

func (m *snapMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		m.t.Begin()
		return false
	}
	if !m.t.Poll(in) {
		return false
	}
	if !m.t.OK {
		m.c.Failf("snapshot not taken")
	}
	m.cut = m.t.Cut
	return true
}

func (m *snapMachine) Result() any { return m.cut }

// Run takes one snapshot of the whole network with node 0 as the (sole)
// trigger and returns the cut every node recorded.
func Run(g graph.Topology, seed int64) (Cut, sim.Metrics, error) {
	res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		return &snapMachine{c: c, t: NewTakeStep(c, c.ID() == 0, func(int) {})}
	}, sim.WithSeed(seed))
	if err != nil {
		return Cut{}, sim.Metrics{}, err
	}
	// Crash-stopped nodes record nothing; the surviving cuts must agree.
	cuts := make([]Cut, 0, len(res.Results))
	for _, r := range res.Results {
		if c, ok := r.(Cut); ok {
			cuts = append(cuts, c)
		}
	}
	if len(cuts) == 0 {
		return Cut{}, sim.Metrics{}, fmt.Errorf("snapshot: no surviving node recorded a cut")
	}
	if err := Consistent(cuts); err != nil {
		return Cut{}, sim.Metrics{}, err
	}
	return cuts[0], res.Metrics, nil
}
