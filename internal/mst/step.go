package mst

// step.go is the step machine of stages 2–3 of the §6 MST algorithm. It
// runs the merge at million-node scale: during the per-phase convergecast
// barriers, passive nodes are parked with SleepUntilPulse, so a phase costs
// O(n) machine steps instead of O(n · radius) — and the per-step work is
// kept allocation-free (link-indexed fragment slices instead of maps, the
// heard list grouped by an in-place stable sort instead of a per-phase map)
// because every node runs it every slot round.

import (
	"cmp"
	"slices"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// merge machine states.
const (
	msCap   = iota // stage 2: Capetanakis core scheduling
	msExch         // stage 3 part 1: awaiting the fragment exchange
	msConv         // stage 3 step 1: convergecast barrier
	msSlots        // stage 3 step 2: core broadcast slots
)

// mergeMachine is one node's state in the native merge. The forest and the
// children lists are shared read-only across all machines of the run.
type mergeMachine struct {
	c         *sim.StepCtx
	f         *forest.Forest
	kids      []graph.NodeID
	phasesOut *int

	state int
	cap   *resolve.CapetanakisStep
	b     *sim.StepBarrier

	isCore   bool
	initFrag graph.NodeID
	mstEdges []int // incident MST edges, deduplicated, sorted at finish

	k         int
	slotOf    int
	fragIdx   int                  // own initial fragment's schedule index
	fragIndex map[graph.NodeID]int // fragment root -> schedule index (cold)
	linkIdx   []int32              // per-link neighbor fragment index, -1 unknown
	linkFrag  []graph.NodeID       // per-link neighbor initial fragment root
	uf        *graph.UnionFind

	// Per-phase state.
	best    mMin
	myCur   int // current fragment index, cached at phase open
	reports int
	sentUp  bool
	heard   []mSlot
	slotIdx int
	phases  int

	result any
}

// mergeStepProgram builds the native machines for stages 2 and 3 of §6.
func mergeStepProgram(f *forest.Forest, phasesOut *int) sim.StepProgram {
	children := f.Children()
	var slab sim.Slab[mergeMachine]
	return func(c *sim.StepCtx) sim.Machine {
		id := c.ID()
		m := slab.Alloc(c.N())
		*m = mergeMachine{
			c:         c,
			f:         f,
			kids:      children[id],
			phasesOut: phasesOut,
			b:         sim.NewStepBarrier(c),
			isCore:    f.Parent[id] == -1,
			initFrag:  f.Root(id),
		}
		if f.ParentEdge[id] != -1 {
			m.mstEdges = append(m.mstEdges, f.ParentEdge[id])
		}
		m.cap = resolve.NewCapetanakisStep(c, c.N(), m.isCore, int(id), nil, 0)
		return m
	}
}

func (m *mergeMachine) Result() any { return m.result }

func (m *mergeMachine) Step(in sim.Input) bool {
	switch m.state {
	case msCap:
		if in.Round == 0 {
			m.cap.Begin()
			return false
		}
		if !m.cap.Poll(in) {
			return false
		}
		m.finishCap()
		// Stage 3 part 1: learn the initial fragment across every link,
		// in the round the schedule completed.
		for l := range m.c.Adj() {
			m.c.Send(l, mFragExchange{Frag: m.initFrag})
		}
		m.state = msExch
		return false
	case msExch:
		// Record each neighbor's initial fragment by local link, resolved
		// to its schedule index once. Links whose exchange never arrived
		// (lost to faults) stay -1 and are skipped forever.
		m.linkIdx = make([]int32, m.c.Degree())
		m.linkFrag = make([]graph.NodeID, m.c.Degree())
		for i := range m.linkIdx {
			m.linkIdx[i] = -1
		}
		for _, msg := range in.Msgs {
			fr := msg.Payload.(mFragExchange).Frag
			l := m.c.LinkOf(msg.EdgeID)
			m.linkIdx[l] = int32(m.fragIndex[fr])
			m.linkFrag[l] = fr
		}
		if m.uf.Sets() <= 1 {
			return m.finish()
		}
		m.enterConv()
		return m.stepConv(in)
	case msConv:
		return m.stepConv(in)
	case msSlots:
		return m.stepSlots(in)
	}
	return false
}

// finishCap replicates the per-node bookkeeping after stage 2: the ordered
// core list indexes the replicated union-find.
func (m *mergeMachine) finishCap() {
	sched := m.cap.Sched
	m.k = len(sched)
	m.slotOf = -1
	m.fragIndex = make(map[graph.NodeID]int, m.k)
	for i, s := range sched {
		m.fragIndex[graph.NodeID(s.ID)] = i
		if graph.NodeID(s.ID) == m.c.ID() {
			m.slotOf = i
		}
	}
	m.fragIdx = m.fragIndex[m.initFrag]
	m.uf = graph.NewUnionFind(m.k)
	// Every phase fills heard with up to one mSlot per schedule slot; one
	// exact allocation here beats a million nodes growing it in round one.
	m.heard = make([]mSlot, 0, m.k)
}

// enterConv opens a merge phase: pick the locally best outgoing candidate
// and reset the convergecast counters.
//
//mmlint:noalloc
func (m *mergeMachine) enterConv() {
	m.myCur = m.uf.Find(m.fragIdx)
	m.best = mMin{Valid: false, W: graph.Weight(int64(^uint64(0) >> 1))}
	for l, h := range m.c.Adj() {
		idx := m.linkIdx[l]
		if idx < 0 || m.uf.Find(int(idx)) == m.myCur {
			continue
		}
		if !m.best.Valid || h.Weight < m.best.W {
			m.best = mMin{Valid: true, W: h.Weight, Edge: int(h.EdgeID), Target: m.linkFrag[l]}
		}
	}
	m.reports = 0
	m.sentUp = false
	m.state = msConv
}

// convHandle is the barrier handler of stage 3 step 1: fold the children's
// candidates and report the best one up once every child has.
func (m *mergeMachine) convHandle(step sim.Input) bool {
	for _, msg := range step.Msgs {
		p, ok := msg.Payload.(mMin)
		if !ok {
			continue // e.g. the part-1 exchange input replayed on entry
		}
		m.reports++
		if p.Valid && (!m.best.Valid || p.W < m.best.W) {
			m.best = p
		}
	}
	if !m.sentUp && m.reports == len(m.kids) {
		m.sentUp = true
		if !m.isCore {
			m.c.SendTo(m.f.Parent[m.c.ID()], m.best)
		}
	}
	return false
}

func (m *mergeMachine) stepConv(in sim.Input) bool {
	if !m.b.Step(in, m.convHandle) {
		return false
	}
	// The pulse: the fragment minima are at the cores. Open the slot loop;
	// slot 0's broadcast is staged in the pulse round.
	m.heard = m.heard[:0]
	m.slotIdx = 0
	if m.slotOf == 0 {
		m.broadcastOwn()
	}
	m.state = msSlots
	return false
}

// broadcastOwn stages this core's mSlot for its assigned slot. No merges
// happen between the phase open and the slot rounds, so the cached current
// fragment (and the union-find) still match the values at enterConv.
func (m *mergeMachine) broadcastOwn() {
	s := mSlot{Valid: m.best.Valid, CurFrag: graph.NodeID(m.myCur)}
	if m.best.Valid {
		s.W, s.Edge, s.TargetCF = m.best.W, m.best.Edge, graph.NodeID(m.uf.Find(m.fragIndex[m.best.Target]))
	}
	m.c.Broadcast(s)
}

//mmlint:noalloc
func (m *mergeMachine) stepSlots(in sim.Input) bool {
	if in.Slot.State == sim.SlotSuccess {
		if p, ok := in.Slot.Payload.(mSlot); ok && p.Valid {
			m.heard = append(m.heard, p)
		}
	}
	m.slotIdx++
	if m.slotIdx < m.k {
		if m.slotOf == m.slotIdx {
			m.broadcastOwn()
		}
		return false
	}

	// Local: the minimum per current fragment is an MST edge; merge, in the
	// same canonical order as every other node. The heard list is grouped
	// in place: the stable sort keeps arrival order within each fragment,
	// so the strict-less scan picks the earliest-heard minimum, and the
	// groups come out in the ascending fragment order the merges must
	// replay in.
	slices.SortStableFunc(m.heard, func(a, b mSlot) int { return cmp.Compare(a.CurFrag, b.CurFrag) })
	id := m.c.ID()
	merges := 0
	for i := 0; i < len(m.heard); {
		best := m.heard[i]
		j := i + 1
		for ; j < len(m.heard) && m.heard[j].CurFrag == best.CurFrag; j++ {
			if m.heard[j].W < best.W {
				best = m.heard[j]
			}
		}
		m.uf.Union(int(best.CurFrag), int(best.TargetCF))
		e := m.c.Topo().Edge(best.Edge)
		if e.U == id || e.V == id {
			m.addMSTEdge(best.Edge)
		}
		merges++
		i = j
	}
	m.phases++
	if merges == 0 && m.uf.Sets() > 1 {
		m.c.Failf("no outgoing links heard with %d fragments left", m.uf.Sets())
	}
	if m.uf.Sets() > 1 {
		m.enterConv()
		return m.stepConv(in)
	}
	return m.finish()
}

// addMSTEdge records an incident MST edge. Duplicates are allowed here
// (both endpoints of a merge edge may pick it in the same phase, and the
// same edge can recur across phases) and removed once in finish — a
// per-add Contains scan would be quadratic at high-degree hubs.
//
//mmlint:noalloc
func (m *mergeMachine) addMSTEdge(e int) {
	m.mstEdges = append(m.mstEdges, e)
}

// finish records the node's incident MST edges and halts.
func (m *mergeMachine) finish() bool {
	if m.phasesOut != nil && m.c.ID() == 0 {
		*m.phasesOut = m.phases
	}
	slices.Sort(m.mstEdges)
	m.mstEdges = slices.Compact(m.mstEdges)
	if m.mstEdges == nil {
		m.mstEdges = []int{}
	}
	m.result = m.mstEdges
	return true
}
