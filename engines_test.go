package repro

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/size"
)

// equivalenceTopologies are the topology families the paper evaluates; the
// registry fixtures cover every protocol on each.
var equivalenceTopologies = []struct {
	name string
	mk   func() (*graph.Graph, error)
}{
	// The fixtures' ring: WattsStrogatz(n, 2, 0, s) is the legacy Ring(n, s+1).
	{"ring48", func() (*graph.Graph, error) { return graph.WattsStrogatz(48, 2, 0, 1) }},
	{"random33", func() (*graph.Graph, error) { return graph.RandomConnected(33, 66, 10) }},
	{"ray4x4", func() (*graph.Graph, error) { return graph.Ray(4, 4, 9) }},
}

// harnessWorkers are the worker counts the root harnesses run every
// protocol at, each as its own subtest: 1 is the sequential reference, and
// 3 and 4 draw different shard boundaries, so a cross-shard delivery or
// merge-order bug shows at one of them.
var harnessWorkers = []int{1, 3, 4}

// outcome captures a run's full observable result: its value on success or
// its error string on failure.
type outcome struct {
	value any
	err   string
}

func capture(run func(g graph.Topology, seed int64) (any, error), g graph.Topology, seed int64) outcome {
	v, err := run(g, seed)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{value: v}
}

// TestMillionNodeRingCensus is the scale gate: the engine must run a
// 10⁶-node ring count (network-size) protocol to completion. The sleep/wake
// wavefront makes this a few seconds of work; stepping every node every
// round would cost ~1.5·10¹² node-rounds.
func TestMillionNodeRingCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node census skipped in -short mode")
	}
	const n = 1_000_000
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := size.Census(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("census = %d, want %d", res.N, n)
	}
	if res.Metrics.Messages != 4*(n-1)+2 {
		// explore+ack on both directed halves, value+result along the tree:
		// 2m explores/acks + (n-1) values + (n-1) results, m = n on a ring.
		t.Logf("messages = %d (informational)", res.Metrics.Messages)
	}
}
