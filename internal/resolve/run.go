package resolve

// run.go wires the election into a whole-network run — the protocol behind
// `mmnet -algo elect`.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// electMachine runs the deterministic election with every node contending.
type electMachine struct {
	c      *sim.StepCtx
	e      *ElectionStep
	leader any
}

func (m *electMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		m.e.Begin()
		return false
	}
	if !m.e.Poll(in) {
		return false
	}
	if !m.e.OK {
		m.c.Failf("no contenders")
	}
	m.leader = m.e.Leader
	return true
}

func (m *electMachine) Result() any { return m.leader }

// Elect runs the §2 deterministic election over the whole network, every
// node contending with its own id; the winner is the maximum id, known to
// every node.
func Elect(g graph.Topology, seed int64) (leader int, met sim.Metrics, err error) {
	res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		return &electMachine{c: c, e: NewElectionStep(c, c.N(), true, int(c.ID()))}
	}, sim.WithSeed(seed))
	if err != nil {
		return 0, sim.Metrics{}, err
	}
	// Crash-stopped nodes record nothing; the survivors must agree.
	found := false
	for v, r := range res.Results {
		l, ok := r.(int)
		if !ok {
			continue
		}
		if !found {
			leader, found = l, true
		} else if l != leader {
			return 0, sim.Metrics{}, fmt.Errorf("resolve: node %d elected %v, others %v", v, l, leader)
		}
	}
	if !found {
		return 0, sim.Metrics{}, fmt.Errorf("resolve: no surviving node elected a leader")
	}
	return leader, res.Metrics, nil
}
