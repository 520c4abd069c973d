package coloring

// step.go is the step machine of the distributed forest coloring: the
// colorState transition, stepped once per round. The protocol's round count
// is O(log* n) and every node is active every round, so no sleeping is
// needed — a 10⁶-node forest 3-colors in a couple dozen rounds of O(n) work
// each (the E11 experiment's coloring leg).

import (
	"repro/internal/forest"
	"repro/internal/sim"
)

// colorMachine is one vertex of the distributed coloring.
type colorMachine struct {
	c          *sim.StepCtx
	st         colorState
	parentEdge int
	parentLink int
	childLinks []int
	result     any
}

func (m *colorMachine) send() {
	// Box the payload once; every link carries the same value.
	var p sim.Payload = cCol{Color: m.st.col, Root: m.st.isRoot}
	if m.parentLink != -1 {
		m.c.Send(m.parentLink, p)
	}
	for _, l := range m.childLinks {
		m.c.Send(l, p)
	}
}

func (m *colorMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		m.send() // round 0: announce the initial color
		return false
	}
	parentCol, parentRoot, childRed := readColors(in.Msgs, m.parentEdge)
	m.st.update(in.Round, parentCol, parentRoot, childRed)
	if in.Round == m.st.lastRound() {
		m.result = m.st.col
		return true
	}
	m.send()
	return false
}

func (m *colorMachine) Result() any { return m.result }

// StepProgram returns the distributed coloring of f as a step program:
// each node ends with its final color as its result. Machines come from a
// per-run slab: one allocation for the whole forest.
func StepProgram(f *forest.Forest) sim.StepProgram {
	children := f.Children()
	var slab sim.Slab[colorMachine]
	return func(c *sim.StepCtx) sim.Machine {
		id := c.ID()
		m := slab.Alloc(c.N())
		*m = colorMachine{
			c: c,
			st: colorState{
				T:       stepsToSix(c.N()),
				isRoot:  f.Parent[id] == -1,
				hasKids: len(children[id]) > 0,
				col:     int(id),
			},
			parentEdge: f.ParentEdge[id],
			parentLink: -1,
		}
		if !m.st.isRoot {
			m.parentLink = c.LinkOf(f.ParentEdge[id])
		}
		m.childLinks = make([]int, 0, len(children[id]))
		for _, k := range children[id] {
			m.childLinks = append(m.childLinks, c.LinkOf(f.ParentEdge[k]))
		}
		return m
	}
}
