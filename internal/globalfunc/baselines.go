package globalfunc

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// The two baselines realize the paper's lower-bound models (§5.2): a pure
// point-to-point network, where computing a global sensitive function needs
// Ω(d) time, and a pure broadcast network, where it needs Ω(n) time. The
// multimedia algorithm beating both on graphs with d ≥ √n is the paper's
// headline result.

// Point-to-point baseline payloads.
type (
	p2pExplore struct{}             // BFS wave from the leader
	p2pAck     struct{ Child bool } // reply: did this explore adopt you?
	p2pValue   struct{ V int64 }    // convergecast partial
	p2pResult  struct{ V int64 }    // final value broadcast down the tree
)

// PointToPoint computes the function using only the point-to-point network:
// build a BFS tree from the distinguished leader (node 0, as in the paper's
// remark on the known-leader case), convergecast partials, broadcast the
// result. Θ(d) time, O(m + n) messages; the channel is never used. Extra
// options (workers, transcript, checkpoints) pass through to the engine.
func PointToPoint(g graph.Topology, seed int64, op Op, in Inputs, opts ...sim.Option) (*Result, error) {
	opts = append([]sim.Option{sim.WithSeed(seed)}, opts...)
	res, err := sim.RunStep(g, P2PStepProgram(op, in), opts...)
	if err != nil {
		return nil, fmt.Errorf("globalfunc: p2p baseline: %w", err)
	}
	if res.Metrics.Slots() != 0 {
		return nil, fmt.Errorf("globalfunc: p2p baseline touched the channel")
	}
	val, err := collectValue(res.Results)
	if err != nil {
		return nil, err
	}
	return &Result{Value: val, Trees: 1, Compute: res.Metrics, Total: res.Metrics}, nil
}

// BroadcastOnly computes the function using only the multiaccess channel:
// every node is a contender and broadcasts its own input; all nodes combine
// everything heard. Deterministic scheduling uses Capetanakis over the full
// id space (Θ(n) slots); randomized uses Metcalfe–Boggs (Θ(n) expected).
// The point-to-point network is never used.
func BroadcastOnly(g graph.Topology, seed int64, op Op, in Inputs, stage Stage) (*Result, error) {
	res, err := sim.RunStep(g, stageProgram(nil, op, in, stage, g.N()), sim.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("globalfunc: broadcast baseline: %w", err)
	}
	if res.Metrics.Messages != 0 {
		return nil, fmt.Errorf("globalfunc: broadcast baseline sent point-to-point messages")
	}
	val, err := collectValue(res.Results)
	if err != nil {
		return nil, err
	}
	return &Result{Value: val, Trees: g.N(), Compute: res.Metrics, Total: res.Metrics}, nil
}
