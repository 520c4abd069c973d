package sim

// linkof_test.go pins the engine's link lookups — StepCtx.LinkOf, Link,
// Send and SendTo — on both topology forms: every link resolves both ways,
// and every misuse fails the run with its documented wording. Degrees of 16
// and above (the star hub, complete:20, the BA hubs) take LinkOf's weight
// binary search; Link scans the adjacency memo at every degree.

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// lookupSpecs are the topologies of the lookup tests: three implicit
// families, each also in stored form, plus two stored-only generators.
var lookupSpecs = []string{
	"ring:12", "mat:ring:12",
	"star:40", "mat:star:40",
	"hypercube:5", "mat:hypercube:5",
	"complete:20", "ba:300,3",
}

func lookupTopo(t *testing.T, spec string) graph.Topology {
	t.Helper()
	g, err := graph.ParseSpec(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nonNeighbour returns a node other than v and not adjacent to it.
func nonNeighbour(g graph.Topology, v graph.NodeID) (graph.NodeID, bool) {
	adjacent := map[graph.NodeID]bool{v: true}
	for _, h := range g.Adj(v) {
		adjacent[h.To] = true
	}
	for w := 0; w < g.N(); w++ {
		if !adjacent[graph.NodeID(w)] {
			return graph.NodeID(w), true
		}
	}
	return 0, false
}

// foreignEdge returns an edge id not incident to v.
func foreignEdge(g graph.Topology, v graph.NodeID) (int, bool) {
	for id := 0; id < g.M(); id++ {
		if e := g.Edge(id); e.U != v && e.V != v {
			return id, true
		}
	}
	return 0, false
}

func TestStepLinkLookupsRoundTrip(t *testing.T) {
	for _, spec := range lookupSpecs {
		g := lookupTopo(t, spec)
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", spec, workers), func(t *testing.T) {
				checked := make([]int, g.N())
				_, err := RunStep(g, func(c *StepCtx) Machine {
					return &stepFuncs{step: func(Input) bool {
						adj := c.Adj()
						if len(adj) != c.Degree() {
							c.Failf("Adj has %d links, Degree %d", len(adj), c.Degree())
						}
						for l, h := range adj {
							if got := c.LinkOf(int(h.EdgeID)); got != l {
								c.Failf("LinkOf(edge %d) = %d, want %d", h.EdgeID, got, l)
							}
							if got, ok := c.Link(h.To); !ok || got != l {
								c.Failf("Link(%d) = %d,%v, want %d,true", h.To, got, ok, l)
							}
						}
						if l, ok := c.Link(c.ID()); ok || l != 0 {
							c.Failf("Link(self) = %d,%v, want 0,false", l, ok)
						}
						if w, ok := nonNeighbour(g, c.ID()); ok {
							if l, ok := c.Link(w); ok || l != 0 {
								c.Failf("Link(non-neighbour %d) = %d,%v, want 0,false", w, l, ok)
							}
						}
						checked[c.ID()] = len(adj)
						return true
					}}
				}, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for v, d := range checked {
					if d != g.Degree(graph.NodeID(v)) {
						t.Fatalf("node %d checked %d links, degree %d", v, d, g.Degree(graph.NodeID(v)))
					}
				}
			})
		}
	}
}

// maxDegreeNode returns the lowest-numbered node of maximum degree.
func maxDegreeNode(g graph.Topology) graph.NodeID {
	best := graph.NodeID(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(best) {
			best = graph.NodeID(v)
		}
	}
	return best
}

func TestStepLinkLookupPanics(t *testing.T) {
	type misuse struct {
		name string
		// probe picks the misbehaving node and returns its bad call and the
		// panic message it must raise; ok=false skips the case.
		probe func(g graph.Topology) (v graph.NodeID, call func(c *StepCtx), want string, ok bool)
	}
	hub := maxDegreeNode
	cases := []misuse{
		{"LinkOf(-1)", func(g graph.Topology) (graph.NodeID, func(*StepCtx), string, bool) {
			v := hub(g)
			return v, func(c *StepCtx) { c.LinkOf(-1) },
				fmt.Sprintf("sim: node %d has no link with edge id -1", v), true
		}},
		{"LinkOf(M)", func(g graph.Topology) (graph.NodeID, func(*StepCtx), string, bool) {
			v, m := hub(g), g.M()
			return v, func(c *StepCtx) { c.LinkOf(m) },
				fmt.Sprintf("sim: node %d has no link with edge id %d", v, m), true
		}},
		{"LinkOf(foreign)", func(g graph.Topology) (graph.NodeID, func(*StepCtx), string, bool) {
			// The hub first; a star's hub touches every edge, so fall back
			// to the lowest node that has a foreign edge.
			for _, v := range append([]graph.NodeID{hub(g)}, 0, 1) {
				if id, ok := foreignEdge(g, v); ok {
					return v, func(c *StepCtx) { c.LinkOf(id) },
						fmt.Sprintf("sim: node %d has no link with edge id %d", v, id), true
				}
			}
			return 0, nil, "", false
		}},
		{"Send(Degree)", func(g graph.Topology) (graph.NodeID, func(*StepCtx), string, bool) {
			v := hub(g)
			d := g.Degree(v)
			return v, func(c *StepCtx) { c.Send(c.Degree(), 1) },
				fmt.Sprintf("sim: node %d send on link %d of %d", v, d, d), true
		}},
		{"SendTo(non-neighbour)", func(g graph.Topology) (graph.NodeID, func(*StepCtx), string, bool) {
			// A complete graph's or star hub's only non-neighbour is itself.
			v := hub(g)
			w, ok := nonNeighbour(g, v)
			if !ok {
				w = v
			}
			return v, func(c *StepCtx) { c.SendTo(w, 1) },
				fmt.Sprintf("sim: node %d is not adjacent to %d", v, w), true
		}},
	}
	for _, spec := range lookupSpecs {
		g := lookupTopo(t, spec)
		for _, tc := range cases {
			t.Run(spec+"/"+tc.name, func(t *testing.T) {
				bad, call, want, ok := tc.probe(g)
				if !ok {
					t.Skipf("%s has no node for this misuse", spec)
				}
				_, err := RunStep(g, func(c *StepCtx) Machine {
					return &stepFuncs{step: func(Input) bool {
						if c.ID() == bad {
							call(c)
						}
						return true
					}}
				}, WithWorkers(3))
				wantErr := fmt.Sprintf("sim: node %d panicked: %s", bad, want)
				if err == nil || err.Error() != wantErr {
					t.Fatalf("run error = %v, want %q", err, wantErr)
				}
			})
		}
	}
}
