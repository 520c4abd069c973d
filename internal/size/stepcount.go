package size

// stepcount.go provides the native step machines of the network-size
// protocols: Census, a point-to-point BFS census that counts the stations
// exactly in O(diameter) rounds and O(n + m) total work — the protocol the
// step engine can run on 10⁶-node networks — and the §7.4 Greenberg–Ladner
// estimator behind Estimate.

import (
	"encoding/gob"
	"fmt"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/sim"
)

// CensusResult is the outcome of the native BFS census.
type CensusResult struct {
	N       int
	Metrics sim.Metrics
}

// Census counts the stations on the point-to-point network with the native
// step engine: the BFS-tree aggregate of globalfunc with every input 1.
// Every node learns n; the channel is never used. Thanks to the engine's
// sleep/wake activation the cost is proportional to n + m node-steps, so a
// million-node ring completes in seconds.
func Census(g graph.Topology, seed int64, opts ...sim.Option) (*CensusResult, error) {
	opts = append([]sim.Option{sim.WithSeed(seed)}, opts...)
	res, err := sim.RunStep(g, globalfunc.P2PStepProgram(globalfunc.Sum,
		func(graph.NodeID) int64 { return 1 }), opts...)
	if err != nil {
		// The registry fixtures pin this wording of census failures.
		return nil, fmt.Errorf("size: census: globalfunc: p2p step baseline: %w", err)
	}
	n, ok := res.Results[0].(int64)
	if !ok {
		return nil, fmt.Errorf("size: census: globalfunc: node 0 recorded %T, want int64", res.Results[0])
	}
	for v, r := range res.Results {
		if r != n {
			return nil, fmt.Errorf("size: census: %w: node %d has %v, node 0 has %v", globalfunc.ErrDisagreement, v, r, n)
		}
	}
	return &CensusResult{N: int(n), Metrics: res.Metrics}, nil
}

// glMachine is one node of the Greenberg–Ladner estimator: in iteration i
// the node transmits with probability 2^-i; the first idle slot after k
// rounds yields the estimate 2^k.
type glMachine struct {
	c   *sim.StepCtx
	i   int32
	est int64
}

func (m *glMachine) Step(in sim.Input) bool {
	if in.Round > 0 && in.Slot.State == sim.SlotIdle {
		m.est = int64(1) << uint(min(m.i, 62))
		return true
	}
	m.i++
	p := 1.0
	for j := int32(0); j < m.i; j++ {
		p /= 2
	}
	if m.c.Rand().Float64() < p {
		m.c.Busy()
	}
	return false
}

func (m *glMachine) Result() any { return m.est }

// glState is the checkpointable image of glMachine, exported for gob.
type glState struct {
	I   int
	Est int64
}

// SnapshotState implements sim.Snapshotter.
func (m *glMachine) SnapshotState() any { return glState{I: int(m.i), Est: m.est} }

// RestoreState implements sim.Snapshotter.
func (m *glMachine) RestoreState(state any) {
	s := state.(glState)
	m.i, m.est = int32(s.I), s.Est
}

// GLStepProgram returns the native Greenberg–Ladner estimator program, for
// callers that drive sim.RunStep or sim.Resume directly (Estimate wraps it
// with result validation). Machines come from a per-run slab: one
// allocation for the whole network.
func GLStepProgram() sim.StepProgram {
	var slab sim.Slab[glMachine]
	return func(c *sim.StepCtx) sim.Machine {
		m := slab.Alloc(c.N())
		*m = glMachine{c: c}
		return m
	}
}

func init() {
	gob.Register(glState{})
}
