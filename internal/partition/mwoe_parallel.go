package partition

import (
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Ablation A4 (`mmexp -only A4`): the alternative MWOE search that tests all
// untested edges in parallel instead of sequentially in weight order. It
// finishes in O(1) rounds plus the convergecast instead of O(1 + rejects),
// but re-tests accepted edges every phase, so its message complexity grows
// to O(m·log n) instead of the paper's O(m + n·log n·log*n). The experiment
// table quantifies the trade.

// beginParallelMWOE sets up the parallel Step 2: every active node sends
// all its tests in the step's first round.
func (nd *dNode) beginParallelMWOE() {
	nd.cand = dMin{Valid: false, W: noWeight}
	nd.best = dMin{Valid: false, W: noWeight}
	nd.downEdge = -1
	nd.pending = 0
	if nd.active {
		for l, f := range nd.links {
			if f&(linkRejected|linkChild) != 0 || l == nd.parentLink {
				continue
			}
			nd.c.Send(l, dTest{Frag: nd.frag})
			nd.pending++
		}
	}
	nd.testDone = !nd.active || nd.pending == 0
}

func (nd *dNode) parallelMWOERound(in sim.Input) bool {
	c := nd.c
	for _, m := range in.Msgs {
		switch p := m.Payload.(type) {
		case dTest:
			c.Send(c.LinkOf(m.EdgeID), dReply{Accept: p.Frag != nd.frag, Frag: nd.frag})
		case dReply:
			nd.pending--
			if p.Accept {
				e := c.Topo().Edge(m.EdgeID)
				if !nd.cand.Valid || e.Weight < nd.cand.W {
					nd.cand = dMin{Valid: true, W: e.Weight, Edge: m.EdgeID, Target: p.Frag}
				}
			} else {
				nd.links[c.LinkOf(m.EdgeID)] |= linkRejected
			}
			if nd.pending == 0 {
				nd.testDone = true
			}
		case dMin:
			nd.reports++
			if p.Valid && p.W < nd.best.W {
				nd.best = p
				nd.downEdge = m.EdgeID
			}
		}
	}
	nd.reportBest()
	return nd.active && !nd.replied
}

// DeterministicParallelMWOE runs the §3 partition with the A4 parallel
// edge-testing variant (same output guarantees, different cost profile).
func DeterministicParallelMWOE(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	return runDeterministic(g, seed, DeterministicPhaseCount(g.N()), true)
}
