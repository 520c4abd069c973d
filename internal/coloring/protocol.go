package coloring

// protocol.go is the distributed form of this package's combinatorial
// toolkit: a synchronous protocol that 3-colors a rooted spanning forest
// and recolors it into a rooted MIS (the paper's Steps 4–5), with every
// node simulating its own vertex. The schedule is fixed and known to all —
// stepsToSix(n) Cole–Vishkin iterations, three shift-down/recolor pairs
// eliminating colors 5, 4 and 3, the MIS recoloring, and two promotion
// rounds — so the whole protocol needs no barrier and runs in
// O(log* n) rounds with O(n · log* n) messages and no channel use.
//
// The native machine in step.go advances the per-round transition
// (colorState) defined here.

import (
	"fmt"

	"repro/internal/forest"
	"repro/internal/sim"
)

// cCol is the per-round color exchange: every node sends its current color
// (and its root flag, which children need for the MIS recoloring) to its
// tree parent and all tree children.
type cCol struct {
	Color int
	Root  bool
}

// stepsToSix returns the number of Cole–Vishkin iterations that reduce any
// coloring with values below n to values below six (the distributed
// protocol iterates a fixed, publicly computable count instead of testing
// the global maximum).
func stepsToSix(n int) int {
	maxVal := n - 1
	steps := 0
	for maxVal > 5 {
		b := 0
		for 1<<b <= maxVal {
			b++
		}
		maxVal = 2*(b-1) + 1
		steps++
	}
	return steps
}

// colorState is one vertex's state, advanced once per round. The round
// schedule (T = stepsToSix(n)):
//
//	1..T      Cole–Vishkin iterations
//	T+1..T+6  shift-down / drop-recolor pairs for colors 5, 4, 3
//	T+7       MIS Step 4 (roots red, fix-ups at roots' children)
//	T+8,T+9   MIS Step 5 (promote blue, then green, non-red-adjacent)
type colorState struct {
	T       int
	isRoot  bool
	hasKids bool
	col     int

	preShift int // own color before the current pair's shift-down
}

// lastRound returns the round after which the coloring is final.
func (s *colorState) lastRound() int { return s.T + 9 }

// update advances the vertex by one round. parentCol/parentRoot are from
// the parent's message this round (ignored at roots); childRed reports
// whether any child's message this round carried red.
func (s *colorState) update(round, parentCol int, parentRoot, childRed bool) {
	switch {
	case round == 0:
		// Round 0 only announces the initial coloring (vertex ids).
	case round <= s.T:
		father := s.col ^ 1 // roots pretend their father differs in bit 0
		if !s.isRoot {
			father = parentCol
		}
		s.col = cvColor(s.col, father)
	case round <= s.T+6:
		k := round - s.T // 1..6
		drop := 5 - (k-1)/2
		if k%2 == 1 {
			// Shift-down: all siblings adopt their father's color, so after
			// this round every child of v wears v's pre-shift color.
			s.preShift = s.col
			if s.isRoot {
				s.col = smallestExcept(s.col)
			} else {
				s.col = parentCol
			}
		} else if s.col == drop {
			var forbidden [6]bool
			if !s.isRoot {
				forbidden[parentCol] = true
			}
			if s.hasKids {
				forbidden[s.preShift] = true
			}
			for x := 0; x < 3; x++ {
				if !forbidden[x] {
					s.col = x
					break
				}
			}
		}
	case round == s.T+7:
		// MIS Step 4: every vertex except roots and roots' children takes
		// its father's color; each root turns red, its children recolored
		// to keep the coloring legal.
		switch {
		case s.isRoot:
			s.col = Red
		case parentRoot:
			if parentCol == Red {
				s.col = thirdColor(Red, s.col)
			} else {
				s.col = parentCol
			}
		default:
			s.col = parentCol
		}
	case round == s.T+8:
		if s.col == Blue && !s.redNeighbor(parentCol, childRed) {
			s.col = Red
		}
	case round == s.T+9:
		if s.col == Green && !s.redNeighbor(parentCol, childRed) {
			s.col = Red
		}
	}
}

// redNeighbor reports whether the father's or any child's announcement this
// round carried red.
func (s *colorState) redNeighbor(parentCol int, childRed bool) bool {
	return (!s.isRoot && parentCol == Red) || childRed
}

// readColors splits a round's messages into the parent's announcement and
// the any-child-red summary.
func readColors(msgs []sim.Message, parentEdge int) (parentCol int, parentRoot, childRed bool) {
	for _, m := range msgs {
		p := m.Payload.(cCol)
		if m.EdgeID == parentEdge {
			parentCol, parentRoot = p.Color, p.Root
		} else if p.Color == Red {
			childRed = true
		}
	}
	return parentCol, parentRoot, childRed
}

// Distributed runs the protocol over f and returns
// every vertex's final color. The result is a legal 3-coloring whose red
// vertices form an MIS containing every root (validated by the caller via
// IsLegalColoring / IsRootedMIS against ParentInts).
func Distributed(f *forest.Forest, seed int64) ([]int, sim.Metrics, error) {
	res, err := sim.RunStep(f.G, StepProgram(f), sim.WithSeed(seed))
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("coloring: distributed: %w", err)
	}
	colors := make([]int, f.G.N())
	for v, r := range res.Results {
		if c, ok := r.(int); ok {
			colors[v] = c
		} else {
			colors[v] = -1 // crash-stopped before recording
		}
	}
	return colors, res.Metrics, nil
}

// ScheduleRounds returns the protocol's fixed round count for an n-vertex
// network (the last round is the first with no sends).
func ScheduleRounds(n int) int { return stepsToSix(n) + 9 + 1 }

// ParentInts converts a forest's parent pointers to this package's []int
// convention, for running the combinatorial validators on protocol output.
func ParentInts(f *forest.Forest) []int {
	parent := make([]int, len(f.Parent))
	for v, p := range f.Parent {
		parent[v] = int(p)
	}
	return parent
}
