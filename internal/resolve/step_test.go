package resolve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestElectMaxID checks Elect against the sequential answer (the registry
// fixtures pin its exact transcripts): with every node contending, the
// leader is the maximum id, found in one liveness slot plus ⌈log₂ n⌉ bit
// slots and the halting round, with no point-to-point traffic.
func TestElectMaxID(t *testing.T) {
	for _, n := range []int{3, 7, 33, 64} {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		leader, met, err := Elect(g, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bits := 0
		for 1<<bits < n {
			bits++
		}
		if leader != n-1 || met.Rounds != bits+2 || met.Messages != 0 {
			t.Errorf("n=%d: leader %d in %d rounds (%d messages), want %d in %d rounds",
				n, leader, met.Rounds, met.Messages, n-1, bits+2)
		}
	}
}

// TestCapetanakisStepPinned pins the tree-splitting schedule and slot bill
// for every third node contending on a 24-node ring: contenders are heard
// in id order, in 8 successes, 7 collisions and 1 idle slot, and the
// machines halt in the last slot's round. The values were recorded from the
// blocking form the component replaced.
func TestCapetanakisStepPinned(t *testing.T) {
	g, err := graph.ImplicitRing(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		id := int(c.ID())
		return capetanakis(c, id%3 == 0, id*10, func(s []ScheduledItem) any { return s })
	}, sim.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []ScheduledItem{{0, 0}, {3, 30}, {6, 60}, {9, 90}, {12, 120}, {15, 150}, {18, 180}, {21, 210}}
	for v, r := range res.Results {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("node %d schedule %v, want %v", v, r, want)
		}
	}
	wantM := sim.Metrics{Rounds: 16, SlotsIdle: 1, SlotsSuccess: 8, SlotsCollision: 7}
	if res.Metrics != wantM {
		t.Errorf("metrics %+v, want %+v", res.Metrics, wantM)
	}
}

// TestMetcalfeBoggsStepPinned pins the randomized contention component
// draw for draw: the schedule order and slot bill of the even nodes of a
// 16-node ring contending with estimate 4, at three seeds. The values were
// recorded from the blocking form the component replaced.
func TestMetcalfeBoggsStepPinned(t *testing.T) {
	g, err := graph.ImplicitRing(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed  int64
		order []int
		m     sim.Metrics
	}{
		{1, []int{12, 2, 8, 14, 10, 4, 6, 0}, sim.Metrics{Rounds: 49, SlotsIdle: 9, SlotsSuccess: 10, SlotsCollision: 30}},
		{7, []int{0, 10, 8, 2, 12, 6, 14, 4}, sim.Metrics{Rounds: 49, SlotsIdle: 9, SlotsSuccess: 9, SlotsCollision: 31}},
		{99, []int{4, 6, 14, 0, 10, 12, 2, 8}, sim.Metrics{Rounds: 55, SlotsIdle: 10, SlotsSuccess: 9, SlotsCollision: 36}},
	} {
		res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
			return metcalfeBoggs(c, 4, c.ID()%2 == 0, nil, 0, func(s []ScheduledItem, done bool) any {
				return fmt.Sprint(schedIDs(s), done)
			})
		}, sim.WithSeed(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(tc.order, true)
		for v, r := range res.Results {
			if r != want {
				t.Fatalf("seed %d: node %d schedule %v, want %v", tc.seed, v, r, want)
			}
		}
		if res.Metrics != tc.m {
			t.Errorf("seed %d: metrics %+v, want %+v", tc.seed, res.Metrics, tc.m)
		}
	}
}
