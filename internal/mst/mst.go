// Package mst implements §6: a deterministic minimum-spanning-tree
// algorithm for multimedia networks, a distributed realization of Kruskal's
// algorithm. Three stages:
//
//  1. the deterministic partition (§3) builds O(√n) initial fragments, each
//     a rooted subtree of the MST;
//  2. the fragment cores are scheduled on the channel with Capetanakis tree
//     splitting, giving every node the full ordered core list;
//  3. O(log n) merge phases: each initial fragment convergecasts its
//     minimum-weight link leaving its *current* fragment, the cores
//     broadcast these minima in their assigned slots, and every node
//     locally replays the same union-find merge — so fragment bookkeeping
//     needs no further communication, exactly as the paper observes.
//
// The algorithm runs in O(√n·log n) time and O(m + n·log n·log*n) messages.
package mst

import (
	"fmt"
	"sort"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Result is the outcome of a distributed MST computation.
type Result struct {
	MST              *graph.MST
	InitialFragments int
	Phases           int
	Partition        sim.Metrics // stage-1 costs
	Merge            sim.Metrics // stage-2 + stage-3 costs
	Total            sim.Metrics
}

// message payloads.
type (
	mFragExchange struct{ Frag graph.NodeID } // part 1: init fragment across each link
	mMin          struct {                    // convergecast candidate
		Valid  bool
		W      graph.Weight
		Edge   int
		Target graph.NodeID // target's *initial* fragment
	}
	mSlot struct { // core's channel broadcast
		Valid    bool
		CurFrag  graph.NodeID
		W        graph.Weight
		Edge     int
		TargetCF graph.NodeID
	}
)

// Multimedia computes the MST of g with the §6 algorithm.
func Multimedia(g graph.Topology, seed int64) (*Result, error) {
	f, pm, _, err := partition.Deterministic(g, seed)
	if err != nil {
		return nil, fmt.Errorf("mst: partition: %w", err)
	}
	return finish(g, seed, f, pm)
}

// MultimediaFromForest runs stages 2–3 on a caller-supplied partition (used
// by the ablation experiments to swap in the randomized partition; note the
// §3 subtree-of-MST property is then only guaranteed if the forest's trees
// are MST subtrees).
func MultimediaFromForest(g graph.Topology, seed int64, f *forest.Forest, pm *sim.Metrics) (*Result, error) {
	return finish(g, seed, f, pm)
}

func finish(g graph.Topology, seed int64, f *forest.Forest, pm *sim.Metrics) (*Result, error) {
	phases := 0
	res, err := sim.RunStep(g, mergeStepProgram(f, &phases), sim.WithSeed(seed+1))
	if err != nil {
		return nil, fmt.Errorf("mst: merge: %w", err)
	}
	mst, err := assemble(g, res.Results)
	if err != nil {
		return nil, err
	}
	out := &Result{
		MST:              mst,
		InitialFragments: f.Trees(),
		Phases:           phases,
		Partition:        *pm,
		Merge:            res.Metrics,
	}
	out.Total = *pm
	out.Total.Add(&res.Metrics)
	return out, nil
}

// assemble merges the per-node incident MST edge lists into one edge set.
func assemble(g graph.Topology, results []any) (*graph.MST, error) {
	seen := make(map[int]bool)
	for v, r := range results {
		ids, ok := r.([]int)
		if !ok {
			return nil, fmt.Errorf("mst: node %d recorded %T, want []int", v, r)
		}
		for _, id := range ids {
			seen[id] = true
		}
	}
	mst := &graph.MST{}
	for id := range seen {
		mst.EdgeIDs = append(mst.EdgeIDs, id)
	}
	sort.Ints(mst.EdgeIDs)
	for _, id := range mst.EdgeIDs {
		mst.Total += g.Edge(id).Weight
	}
	if len(mst.EdgeIDs) != g.N()-1 {
		return nil, fmt.Errorf("mst: assembled %d edges, want %d", len(mst.EdgeIDs), g.N()-1)
	}
	return mst, nil
}

// Boruvka wraps the pure point-to-point baseline (the §3 machinery run to
// completion) into the same Result shape for the experiments.
func Boruvka(g graph.Topology, seed int64) (*Result, error) {
	f, met, info, err := partition.Boruvka(g, seed)
	if err != nil {
		return nil, fmt.Errorf("mst: boruvka baseline: %w", err)
	}
	mst := &graph.MST{}
	for _, id := range f.ParentEdge {
		if id != -1 {
			mst.EdgeIDs = append(mst.EdgeIDs, id)
			mst.Total += g.Edge(id).Weight
		}
	}
	sort.Ints(mst.EdgeIDs)
	return &Result{
		MST:              mst,
		InitialFragments: 1,
		Phases:           info.Phases,
		Partition:        *met,
		Merge:            sim.Metrics{},
		Total:            *met,
	}, nil
}
