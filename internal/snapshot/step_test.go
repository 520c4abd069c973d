package snapshot

import (
	"testing"

	"repro/internal/graph"
)

// TestRunCutRound checks Run against the election's slot arithmetic (the
// registry fixtures pin its exact transcripts): the sole trigger, node 0,
// initiates, and the cut is the round its last slot is heard — one
// liveness slot plus ⌈log₂ n⌉ bit slots — with no point-to-point traffic.
func TestRunCutRound(t *testing.T) {
	g, err := graph.RandomConnected(40, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	cut, met, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	bits := 0
	for 1<<bits < g.N() {
		bits++
	}
	if cut != (Cut{Initiator: 0, Round: 1 + bits}) {
		t.Errorf("cut = %+v, want initiator 0 at round %d", cut, 1+bits)
	}
	if met.Rounds != cut.Round+1 || met.Messages != 0 {
		t.Errorf("metrics %+v, want %d rounds and no messages", met, cut.Round+1)
	}
}
