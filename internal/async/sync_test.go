package async

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// runSyncSum drives SumDemo through the sim-engine synchronizer.
func runSyncSum(t *testing.T, g graph.Topology, seed int64) (int64, *SyncResult) {
	t.Helper()
	results := make([]int64, g.N())
	var mu sync.Mutex
	res, err := Sync(g, seed, 50*g.N()+500, SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range results {
		if r != results[0] {
			t.Fatalf("node %d computed %d, node 0 %d", v, r, results[0])
		}
	}
	return results[0], res
}

// TestSyncComputesSum: the synchronizer-driven run must compute the same
// aggregate as the synchronous algorithm, with the Corollary 4 overhead of
// exactly one ack per algorithm message.
func TestSyncComputesSum(t *testing.T) {
	g, err := graph.ImplicitGrid(6, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum, res := runSyncSum(t, g, 9)
	want := int64(g.N()) * int64(g.N()+1) / 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if res.AckMsgs != res.AlgMsgs {
		t.Errorf("acks = %d, want one per algorithm message (%d)", res.AckMsgs, res.AlgMsgs)
	}
	if got := res.Overhead(); got != 2 {
		t.Errorf("overhead = %.2f, want exactly 2", got)
	}
	if res.Metrics.Messages != res.AlgMsgs+res.AckMsgs {
		t.Errorf("engine counted %d messages, synchronizer %d", res.Metrics.Messages, res.AlgMsgs+res.AckMsgs)
	}
}

// TestSyncMatchesEventEngine checks the synchronizer run against the
// event-driven asynchronous engine executing the same algorithm (the
// registry fixtures pin its exact transcripts): the same sum, simulated
// rounds, algorithm messages and acknowledgements.
func TestSyncMatchesEventEngine(t *testing.T) {
	g, err := graph.RandomConnected(40, 70, 11)
	if err != nil {
		t.Fatal(err)
	}
	sum, res := runSyncSum(t, g, 1)
	results := make([]int64, g.N())
	var mu sync.Mutex
	ref, err := Run(g, 1, 50*g.N()+500, SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if sum != results[0] || res.Rounds != ref.Rounds || res.AlgMsgs != ref.AlgMsgs || res.AckMsgs != ref.AckMsgs {
		t.Errorf("synchronizer run sum=%d %+v, event engine sum=%d %+v", sum, res, results[0], ref)
	}
}
