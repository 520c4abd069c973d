// Package partition implements the paper's two network-partitioning
// algorithms: the deterministic algorithm of §3 (GHS-style fragment growth
// combined with Goldberg–Plotkin–Shannon symmetry breaking) and the
// randomized algorithm of §4 (iterated coin flips with tower probabilities
// growing bounded-depth BFS balls), plus the Las Vegas wrapper.
//
// Both produce a rooted spanning forest of O(√n) trees, each of radius
// O(√n) — the balance point between the point-to-point local stage and the
// multiaccess global stage of every algorithm in the paper.
package partition

import (
	"fmt"
	"math"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// NodeOutcome is each node's final view of the partition, recorded as its
// sim result: its tree parent (or -1 for cores), the graph edge to the
// parent, and the core of its tree.
type NodeOutcome struct {
	Parent     graph.NodeID
	ParentEdge int
	Root       graph.NodeID
}

// SqrtN returns ⌈√n⌉, the balance parameter used throughout the paper.
func SqrtN(n int) int {
	s := int(math.Ceil(math.Sqrt(float64(n))))
	if s < 1 {
		s = 1
	}
	return s
}

// buildForest assembles and validates a forest from per-node outcomes.
func buildForest(g graph.Topology, results []any) (*forest.Forest, error) {
	n := g.N()
	parent := make([]graph.NodeID, n)
	parentEdge := make([]int, n)
	for v := 0; v < n; v++ {
		out, ok := results[v].(NodeOutcome)
		if !ok {
			return nil, fmt.Errorf("partition: node %d produced no outcome (got %T)", v, results[v])
		}
		parent[v] = out.Parent
		parentEdge[v] = out.ParentEdge
	}
	return forest.New(g, parent, parentEdge)
}

// runAndBuild is the common driver: run the machines on g and build the
// forest from the per-node outcomes.
func runAndBuild(g graph.Topology, program sim.StepProgram, opts ...sim.Option) (*forest.Forest, *sim.Metrics, error) {
	res, err := sim.RunStep(g, program, opts...)
	if err != nil {
		return nil, nil, err
	}
	f, err := buildForest(g, res.Results)
	if err != nil {
		return nil, nil, err
	}
	return f, &res.Metrics, nil
}
