// Package size implements §7.3 and §7.4: determining the number of nodes in
// a multimedia network when n is not known in advance. The deterministic
// algorithm (§7.3) interleaves the deterministic partition with bounded
// Capetanakis probes and computes n exactly in O(√n·log|id|) time; the
// randomized algorithm (§7.4, Greenberg–Ladner) estimates n within a
// constant factor w.h.p. in O(log n) slots.
package size

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sim"
)

// ExactResult is the outcome of the deterministic §7.3 computation.
type ExactResult struct {
	N       int
	Phases  int
	Metrics sim.Metrics
}

// Exact computes n deterministically. idUniverse is the publicly known
// bound on the id space (the paper's |id|); pass 0 to use the smallest
// power of two covering the actual ids.
func Exact(g graph.Topology, seed int64, idUniverse int) (*ExactResult, error) {
	if idUniverse <= 0 {
		idUniverse = 1 << uint(bits.Len(uint(g.N()-1)))
	}
	res, met, err := partition.CountNodes(g, seed, idUniverse)
	if err != nil {
		return nil, fmt.Errorf("size: %w", err)
	}
	return &ExactResult{N: res.N, Phases: res.Phases, Metrics: *met}, nil
}

// EstimateResult is the outcome of the randomized §7.4 estimation.
type EstimateResult struct {
	Estimate int64
	Rounds   int
	Metrics  sim.Metrics
}

// Estimate runs the Greenberg–Ladner protocol: in round i every node
// transmits with probability 2^-i; the first idle slot after k rounds
// yields the estimate 2^k, within a constant factor of n w.h.p. Extra
// options (workers, transcript, checkpoints) pass through to the engine.
func Estimate(g graph.Topology, seed int64, opts ...sim.Option) (*EstimateResult, error) {
	opts = append([]sim.Option{sim.WithSeed(seed)}, opts...)
	res, err := sim.RunStep(g, GLStepProgram(), opts...)
	if err != nil {
		return nil, fmt.Errorf("size: estimate: %w", err)
	}
	// Crash-stopped nodes record nothing; the survivors must agree.
	var est int64
	found := false
	for v, r := range res.Results {
		e, ok := r.(int64)
		if !ok {
			continue
		}
		if !found {
			est, found = e, true
		} else if e != est {
			return nil, fmt.Errorf("size: node %d estimated %d, others %d", v, e, est)
		}
	}
	if !found {
		return nil, fmt.Errorf("size: no surviving node estimated the size")
	}
	return &EstimateResult{Estimate: est, Rounds: res.Metrics.Rounds, Metrics: res.Metrics}, nil
}
