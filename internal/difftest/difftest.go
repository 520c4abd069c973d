// Package difftest is the differential-testing registry: one runner per
// protocol of the module, each returning its full observable outcome as a
// reflect.DeepEqual-comparable value. The registry fixtures pin every
// entry's transcript and outcome under two fault plans, and the
// equivalence suites require bit-identical outcomes across worker counts
// and topology forms; cmd/mmnet's coverage test requires every -algo value
// to be claimed by some entry, so an algorithm cannot be added to the CLI
// without that coverage.
//
// Runners honor the process defaults (sim.DefaultFaults, DefaultWorkers,
// DefaultTranscript, DefaultRecorder), so callers configure runs exactly as
// the commands do.
package difftest

import (
	"sync"

	"repro/internal/async"
	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/resolve"
	"repro/internal/size"
	"repro/internal/snapshot"
)

// Protocol is one differential-testing unit.
type Protocol struct {
	Name  string
	Algos []string // the cmd/mmnet -algo values this runner covers
	Run   func(g graph.Topology, seed int64) (any, error)
}

// Protocols returns the registry. Every entry's outcome must be
// bit-identical across worker counts and topology forms, under any fault
// plan — whether the run completes or fails.
func Protocols() []Protocol {
	return []Protocol{
		{Name: "partition-det", Algos: []string{"partition-det"}, Run: func(g graph.Topology, seed int64) (any, error) {
			f, met, info, err := partition.Deterministic(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{f.Parent, f.ParentEdge, *met, info.Phases}, nil
		}},
		{Name: "partition-rand", Algos: []string{"partition-rand"}, Run: func(g graph.Topology, seed int64) (any, error) {
			f, met, info, err := partition.Randomized(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{f.Parent, f.ParentEdge, *met, info.Iterations}, nil
		}},
		{Name: "partition-lv", Algos: []string{"partition-lv"}, Run: func(g graph.Topology, seed int64) (any, error) {
			f, met, info, err := partition.RandomizedLasVegas(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{f.Parent, f.ParentEdge, *met, info.Restarts}, nil
		}},
		{Name: "mst", Algos: []string{"mst"}, Run: func(g graph.Topology, seed int64) (any, error) {
			res, err := mst.Multimedia(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{res.MST.EdgeIDs, res.MST.Total, res.Phases, res.Total}, nil
		}},
		{Name: "mst-boruvka", Algos: []string{"mst-boruvka"}, Run: func(g graph.Topology, seed int64) (any, error) {
			res, err := mst.Boruvka(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{res.MST.EdgeIDs, res.MST.Total, res.Phases, res.Total}, nil
		}},
		{Name: "sum", Algos: []string{"sum"}, Run: func(g graph.Topology, seed int64) (any, error) {
			in := func(v graph.NodeID) int64 { return (int64(v)*97 + 5) % 1000 }
			res, err := globalfunc.Multimedia(g, seed, globalfunc.Sum, in,
				globalfunc.VariantDeterministic, globalfunc.StageCapetanakis)
			if err != nil {
				return nil, err
			}
			return []any{res.Value, res.Trees, res.Total}, nil
		}},
		{Name: "min-rand-mb", Algos: []string{"min"}, Run: func(g graph.Topology, seed int64) (any, error) {
			in := func(v graph.NodeID) int64 { return (int64(v)*31 + 7) % 500 }
			res, err := globalfunc.Multimedia(g, seed, globalfunc.Min, in,
				globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
			if err != nil {
				return nil, err
			}
			return []any{res.Value, res.Trees, res.Total}, nil
		}},
		{Name: "p2p-sum", Algos: []string{"p2p-sum"}, Run: func(g graph.Topology, seed int64) (any, error) {
			in := func(v graph.NodeID) int64 { return int64(v) }
			res, err := globalfunc.PointToPoint(g, seed, globalfunc.Sum, in)
			if err != nil {
				return nil, err
			}
			return []any{res.Value, res.Total}, nil
		}},
		{Name: "bcast-sum", Algos: []string{"bcast-sum"}, Run: func(g graph.Topology, seed int64) (any, error) {
			in := func(v graph.NodeID) int64 { return int64(v) }
			res, err := globalfunc.BroadcastOnly(g, seed, globalfunc.Sum, in, globalfunc.StageCapetanakis)
			if err != nil {
				return nil, err
			}
			return []any{res.Value, res.Total}, nil
		}},
		{Name: "count", Algos: []string{"count"}, Run: func(g graph.Topology, seed int64) (any, error) {
			res, err := size.Exact(g, seed, 0)
			if err != nil {
				return nil, err
			}
			return []any{res.N, res.Phases, res.Metrics}, nil
		}},
		{Name: "census", Algos: []string{"census"}, Run: func(g graph.Topology, seed int64) (any, error) {
			// Native step protocol: engine-flag independent by construction;
			// the registry run still asserts that.
			res, err := size.Census(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{res.N, res.Metrics}, nil
		}},
		{Name: "estimate", Algos: []string{"estimate"}, Run: func(g graph.Topology, seed int64) (any, error) {
			res, err := size.Estimate(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{res.Estimate, res.Metrics}, nil
		}},
		{Name: "elect", Algos: []string{"elect"}, Run: func(g graph.Topology, seed int64) (any, error) {
			leader, met, err := resolve.Elect(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{leader, met}, nil
		}},
		{Name: "snapshot", Algos: []string{"snapshot"}, Run: func(g graph.Topology, seed int64) (any, error) {
			cut, met, err := snapshot.Run(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{cut, met}, nil
		}},
		{Name: "forest", Algos: []string{"forest"}, Run: func(g graph.Topology, seed int64) (any, error) {
			f, total, met, err := forest.BFS(g, seed)
			if err != nil {
				return nil, err
			}
			return []any{f.Parent, f.ParentEdge, total, met}, nil
		}},
		{Name: "coloring", Algos: []string{"coloring"}, Run: func(g graph.Topology, seed int64) (any, error) {
			f, _, bmet, err := forest.BFS(g, seed)
			if err != nil {
				return nil, err
			}
			colors, cmet, err := coloring.Distributed(f, seed)
			if err != nil {
				return nil, err
			}
			return []any{colors, bmet, cmet}, nil
		}},
		{Name: "sync-sum", Algos: []string{"sync-sum"}, Run: func(g graph.Topology, seed int64) (any, error) {
			results := make([]int64, g.N())
			var mu sync.Mutex
			// The simulated-round budget is effectively unbounded: the
			// engine's own round budget is the deterministic wedge guard.
			res, err := async.Sync(g, seed, 1<<30,
				async.SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
			if err != nil {
				return nil, err
			}
			return []any{results[0], res.AlgMsgs, res.AckMsgs, res.Rounds, res.Metrics}, nil
		}},
	}
}

// Covers reports whether the registry claims the given mmnet -algo value.
func Covers(algo string) bool {
	for _, p := range Protocols() {
		for _, a := range p.Algos {
			if a == algo {
				return true
			}
		}
	}
	return false
}
