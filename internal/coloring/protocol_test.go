package coloring_test

import (
	"reflect"
	"testing"

	"repro/internal/coloring"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// protocolForests builds rooted spanning forests to color: the §3 partition
// forest of a random graph, a path chopped into chains, and a star.
func protocolForests(t *testing.T) map[string]*forest.Forest {
	t.Helper()
	out := make(map[string]*forest.Forest)

	g, err := graph.RandomConnected(60, 90, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, _, _, err := partition.Deterministic(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	out["partition60"] = f

	p, err := graph.ImplicitPath(37, 2)
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]graph.NodeID, 37)
	parentEdge := make([]int, 37)
	for v := 0; v < 37; v++ {
		if v%9 == 0 {
			parent[v], parentEdge[v] = -1, -1
		} else {
			parent[v] = graph.NodeID(v - 1)
			parentEdge[v] = v - 1 // Path edge i connects i and i+1
		}
	}
	pf, err := forest.New(p, parent, parentEdge)
	if err != nil {
		t.Fatal(err)
	}
	out["chains37"] = pf

	s, err := graph.ImplicitStar(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := make([]graph.NodeID, 20)
	se := make([]int, 20)
	sp[0], se[0] = -1, -1
	for v := 1; v < 20; v++ {
		sp[v] = 0
		se[v] = v - 1
	}
	sf, err := forest.New(s, sp, se)
	if err != nil {
		t.Fatal(err)
	}
	out["star20"] = sf
	return out
}

// TestDistributedMeetsSpec: the protocol's output must satisfy the
// combinatorial specification — a legal coloring whose red vertices form an
// MIS containing every root.
func TestDistributedMeetsSpec(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, f := range protocolForests(t) {
		t.Run(name, func(t *testing.T) {
			colors, met, err := coloring.Distributed(f, 1)
			if err != nil {
				t.Fatal(err)
			}
			parent := coloring.ParentInts(f)
			for v, c := range colors {
				if c < 0 || c > 2 {
					t.Fatalf("vertex %d has color %d, want 0..2", v, c)
				}
			}
			if !coloring.IsLegalColoring(parent, colors) {
				t.Error("coloring is not legal")
			}
			if !coloring.IsRootedMIS(parent, colors) {
				t.Error("red vertices are not a rooted MIS")
			}
			if met.Slots() != 0 {
				t.Errorf("protocol touched the channel: %d slots", met.Slots())
			}
			wantRounds := coloring.ScheduleRounds(f.G.N())
			if met.Rounds != wantRounds {
				t.Errorf("rounds = %d, want the fixed schedule %d", met.Rounds, wantRounds)
			}
		})
	}
}

// TestDistributedMatchesSequential checks the protocol against the
// sequential pipeline it distributes (the registry fixtures pin its exact
// transcripts): on these forests the Cole–Vishkin/GPS 3-coloring followed by
// the MIS recoloring yields the same colors vertex for vertex.
func TestDistributedMatchesSequential(t *testing.T) {
	//mmlint:commutative independent subtests; names label, order never asserted
	for name, f := range protocolForests(t) {
		t.Run(name, func(t *testing.T) {
			colors, _, err := coloring.Distributed(f, 1)
			if err != nil {
				t.Fatal(err)
			}
			parent := coloring.ParentInts(f)
			three, _, err := coloring.ThreeColor(parent)
			if err != nil {
				t.Fatal(err)
			}
			want, err := coloring.MISRecolor(parent, three)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(colors, want) {
				t.Errorf("colors diverge from the sequential pipeline:\n distributed: %v\n sequential:  %v", colors, want)
			}
		})
	}
}
