package snapshot

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// snapTestMachine does warmup rounds of local work — a counter bumped every
// round — then takes a snapshot, recording the counter at the cut.
type snapTestMachine struct {
	t        *TakeStep
	warmup   int
	counter  int
	recorded int
	out      any
}

func (m *snapTestMachine) Step(in sim.Input) bool {
	switch {
	case in.Round < m.warmup:
		m.counter++
		return false
	case in.Round == m.warmup:
		m.t.Begin()
		return false
	case !m.t.Poll(in):
		return false
	}
	m.out = [4]int{int(m.t.Cut.Initiator), m.t.Cut.Round, m.recorded, b2i(m.t.OK)}
	return true
}

func (m *snapTestMachine) Result() any { return m.out }

// runSnapshot runs one snapshot on g after warmup rounds with the given
// initiators; each node's result is [initiator, cut round, recorded
// counter, ok].
func runSnapshot(t *testing.T, g graph.Topology, warmup int, trigger func(graph.NodeID) bool) *sim.Result {
	t.Helper()
	res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		m := &snapTestMachine{warmup: warmup}
		m.t = NewTakeStep(c, trigger(c.ID()), func(int) { m.recorded = m.counter })
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSnapshotConsistentCut(t *testing.T) {
	// Nodes run a local counter incremented every round; a snapshot must
	// capture all counters at the same round, so all recorded values agree.
	const n = 12
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent initiators.
	res := runSnapshot(t, g, 3, func(id graph.NodeID) bool { return id == 4 || id == 9 })
	first := res.Results[0].([4]int)
	if first[0] != 9 { // election picks the max id among initiators
		t.Errorf("initiator = %d, want 9", first[0])
	}
	if first[2] != 3 || first[3] != 1 {
		t.Errorf("recorded counter %d ok %d, want 3 and 1", first[2], first[3])
	}
	for v, r := range res.Results {
		if r != first {
			t.Errorf("node %d cut %v != node 0 cut %v", v, r, first)
		}
	}
}

func TestSnapshotNoInitiator(t *testing.T) {
	g, err := graph.ImplicitRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runSnapshot(t, g, 0, func(graph.NodeID) bool { return false })
	for v, r := range res.Results {
		if r.([4]int)[3] != 0 {
			t.Errorf("node %d: ok = true, want false", v)
		}
	}
}

func TestSnapshotUsesNoP2PMessages(t *testing.T) {
	g, err := graph.RandomConnected(20, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := runSnapshot(t, g, 0, func(id graph.NodeID) bool { return id == 0 })
	if res.Metrics.Messages != 0 {
		t.Errorf("snapshot sent %d point-to-point messages", res.Metrics.Messages)
	}
	if res.Metrics.Rounds > 12 {
		t.Errorf("snapshot took %d rounds, want O(log n)", res.Metrics.Rounds)
	}
}

func TestConsistent(t *testing.T) {
	good := []Cut{{Initiator: 1, Round: 5}, {Initiator: 1, Round: 5}}
	if err := Consistent(good); err != nil {
		t.Errorf("consistent cuts rejected: %v", err)
	}
	bad := []Cut{{Initiator: 1, Round: 5}, {Initiator: 1, Round: 6}}
	if err := Consistent(bad); err == nil {
		t.Error("inconsistent cuts accepted")
	}
}
