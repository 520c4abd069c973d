package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// §7.3: a deterministic algorithm for computing the network size when n is
// not known in advance. The deterministic partition runs phase by phase; at
// the end of phase i the cores attempt to schedule themselves on the channel
// with a Capetanakis budget proportional to 2^i (times the id length). Once
// the schedule completes with at most 2^i cores, sizes are re-counted and
// broadcast in schedule order; their sum is n. The nodes use only an upper
// bound U on the id universe (ids are O(log n) bits), never n itself.

// SizeCountResult is what every node learns from the §7.3 algorithm.
type SizeCountResult struct {
	N      int // the computed network size
	Phases int // partition phases executed before the probe succeeded
}

// sizeSlot carries one core's fragment size during the final summation.
type sizeSlot struct{ Size int }

const maxSizePhases = 40 // safety cap; the probe succeeds near log(n)/2

// CountNodes runs the §7.3 deterministic size computation and returns the
// value of n every node computed, with run metrics.
func CountNodes(g graph.Topology, seed int64, idUniverse int) (*SizeCountResult, *sim.Metrics, error) {
	if idUniverse < g.N() {
		return nil, nil, fmt.Errorf("partition: id universe %d below node count %d", idUniverse, g.N())
	}
	sh := &sizeShared{
		steps:      phaseSteps(cvStepsFor(idUniverse)),
		idUniverse: idUniverse,
		idBits:     bits.Len(uint(idUniverse - 1)),
	}
	res, err := sim.RunStep(g, sh.program, sim.WithSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	first, ok := res.Results[0].(SizeCountResult)
	if !ok {
		return nil, nil, fmt.Errorf("partition: node 0 recorded %T", res.Results[0])
	}
	for v, r := range res.Results {
		if r != first {
			return nil, nil, fmt.Errorf("partition: node %d computed %+v, node 0 %+v", v, r, first)
		}
	}
	return &first, &res.Metrics, nil
}

// sizeShared is the per-run state every sizeMachine points at.
type sizeShared struct {
	steps      []phaseStep
	idUniverse int
	idBits     int
	slab       sim.Slab[sizeMachine]
}

// The stages of a sizeMachine after each partition phase.
const (
	szPartition = iota // a phase of the deterministic partition
	szProbe            // Capetanakis: can the cores be scheduled in budget?
	szRecount          // the fragment census, re-run
	szSlots            // the cores broadcast their sizes in schedule order
)

// sizeMachine is one node of the §7.3 computation.
type sizeMachine struct {
	dNode
	sh     *sizeShared
	stage  int
	probe  *resolve.CapetanakisStep
	slot   int // schedule index of the size slot awaiting its outcome
	total  int
	result any
}

func (sh *sizeShared) program(c *sim.StepCtx) sim.Machine {
	m := sh.slab.Alloc(c.N())
	m.sh = sh
	m.init(c, sh.steps, false)
	m.beginPhase(0)
	return m
}

func (m *sizeMachine) Step(in sim.Input) bool {
	switch m.stage {
	case szProbe:
		if !m.probe.Poll(in) {
			return false
		}
		if m.probe.Complete && len(m.probe.Sched) <= 1<<uint(min(m.phase, 30)) {
			// Success: re-count the fragment sizes, from this round.
			m.stage = szRecount
			m.setup(0)
		} else {
			if m.phase+1 == maxSizePhases {
				m.c.Failf("size probe never succeeded within %d phases", maxSizePhases)
			}
			m.stage = szPartition
			m.beginPhase(m.phase + 1)
		}
	case szSlots:
		s := m.probe.Sched[m.slot]
		if in.Slot.State != sim.SlotSuccess {
			m.c.Failf("size slot for core %d was %v", s.ID, in.Slot.State)
		}
		m.total += in.Slot.Payload.(sizeSlot).Size
		m.slot++
		return m.nextSlot()
	}
	for m.b.Step(in, m.handle) {
		if m.stage == szRecount {
			m.stage, m.slot = szSlots, 0
			return m.nextSlot()
		}
		if !m.pulse() {
			continue // the next step starts in this pulse round
		}
		// Probe: can the cores be scheduled within the phase budget? The
		// budget is positive, so Begin never ends the probe at once.
		budget := 2*(1<<uint(min(m.phase, 30)))*(m.sh.idBits+2) + 4
		m.probe = resolve.NewCapetanakisStep(m.c, m.sh.idUniverse, m.isCore(), int(m.c.ID()), nil, budget)
		m.probe.Begin()
		m.stage = szProbe
		return false
	}
	return false
}

// nextSlot stages this core's size in its scheduled slot, or records the
// sum once every slot has been heard.
func (m *sizeMachine) nextSlot() bool {
	sched := m.probe.Sched
	if m.slot == len(sched) {
		m.result = SizeCountResult{N: m.total, Phases: m.phase + 1}
		return true
	}
	if graph.NodeID(sched[m.slot].ID) == m.c.ID() {
		m.c.Broadcast(sizeSlot{Size: m.size})
	}
	return false
}

func (m *sizeMachine) Result() any { return m.result }
