package exp

import (
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
)

// workloads for the partition experiments.
func partitionGraphs(n int) (map[string]graph.Topology, error) {
	gs := make(map[string]graph.Topology)
	var err error
	if gs["ring"], err = graph.ImplicitRing(n, 1); err != nil {
		return nil, err
	}
	// grid:N picks near-square sides with at least n nodes.
	if gs["grid"], err = graph.ParseSpec(fmt.Sprintf("grid:%d", n), 2); err != nil {
		return nil, err
	}
	if gs["random"], err = graph.RandomConnected(n, 2*n, 3); err != nil {
		return nil, err
	}
	return gs, nil
}

func sweepSizes(full bool) []int {
	if full {
		return []int{64, 256, 1024, 4096}
	}
	return []int{64, 256}
}

// sweepSizesCapped is for experiments whose per-point cost is dominated by
// many seeded repetitions or linear-time baselines; the scaling shape is
// already unambiguous at 1024.
func sweepSizesCapped(full bool) []int {
	if full {
		return []int{64, 256, 1024}
	}
	return []int{64, 256}
}

// runE1 reproduces the §3 guarantees: tree count ≤ √n, radius O(√n), time
// O(√n·log*n) and messages O(m + n·log n·log*n). The normalized columns
// should stay roughly flat as n grows.
func runE1(w io.Writer, full bool) error {
	t := &Table{
		Title: "E1 — deterministic partition (§3)",
		Header: []string{"graph", "n", "m", "trees", "trees/√n", "maxRadius", "radius/√n",
			"rounds", "rounds/(√n·log*n)", "msgs", "msgs/(m+n·lg n·log*n)"},
	}
	for _, n := range sweepSizes(full) {
		gs, err := partitionGraphs(n)
		if err != nil {
			return err
		}
		for _, name := range []string{"ring", "grid", "random"} {
			g := gs[name]
			f, met, _, err := partition.Deterministic(g, 1)
			if err != nil {
				return fmt.Errorf("E1 %s n=%d: %w", name, n, err)
			}
			st := f.Stats()
			mst, err := graph.Kruskal(g)
			if err != nil {
				return err
			}
			if err := f.SubtreeOfMST(mst); err != nil {
				return fmt.Errorf("E1 %s n=%d: %w", name, n, err)
			}
			ls := float64(logStar(n))
			msgBound := float64(g.M()) + float64(n)*math.Log2(float64(n))*ls
			t.Add(name, n, g.M(), st.Trees, float64(st.Trees)/sqrt(n),
				st.MaxRadius, float64(st.MaxRadius)/sqrt(n),
				met.Rounds, float64(met.Rounds)/(sqrt(n)*ls),
				met.Messages, float64(met.Messages)/msgBound)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  every forest verified as a subforest of the unique MST")
	return nil
}

// runE2 reproduces Theorem 1: expected tree count O(√n), radius ≤ 4√n,
// messages O(m + n·log*n).
func runE2(w io.Writer, full bool) error {
	t := &Table{
		Title: "E2 — randomized partition (§4, Theorem 1)",
		Header: []string{"graph", "n", "seeds", "avg trees", "trees/√n", "max radius",
			"radius bound 4√n", "avg msgs", "msgs/(m+n·log*n)", "avg rounds"},
	}
	seeds := int64(5)
	if full {
		seeds = 10
	}
	for _, n := range sweepSizesCapped(full) {
		gs, err := partitionGraphs(n)
		if err != nil {
			return err
		}
		for _, name := range []string{"ring", "grid", "random"} {
			g := gs[name]
			var trees, msgs, rounds, maxRad float64
			for s := int64(0); s < seeds; s++ {
				f, met, _, err := partition.Randomized(g, s)
				if err != nil {
					return fmt.Errorf("E2 %s n=%d seed=%d: %w", name, n, s, err)
				}
				st := f.Stats()
				trees += float64(st.Trees)
				msgs += float64(met.Messages)
				rounds += float64(met.Rounds)
				if float64(st.MaxRadius) > maxRad {
					maxRad = float64(st.MaxRadius)
				}
			}
			k := float64(seeds)
			msgBound := float64(g.M()) + float64(n)*float64(logStar(n))
			t.Add(name, n, seeds, trees/k, trees/k/sqrt(n), int(maxRad),
				4*partition.SqrtN(n), msgs/k, msgs/k/msgBound, rounds/k)
		}
	}
	t.Fprint(w)
	return nil
}

// runA2 compares Monte Carlo and Las Vegas randomized partitions.
func runA2(w io.Writer, full bool) error {
	t := &Table{
		Title:  "A2 — Monte Carlo vs Las Vegas randomized partition (§4 remark)",
		Header: []string{"n", "seeds", "mc avg trees", "lv avg trees", "lv bound 2√n", "restart rate", "lv extra rounds"},
	}
	seeds := int64(6)
	if full {
		seeds = 10
	}
	for _, n := range sweepSizesCapped(full) {
		g, err := graph.RandomConnected(n, 2*n, 3)
		if err != nil {
			return err
		}
		var mcTrees, lvTrees, restarts, extra float64
		for s := int64(0); s < seeds; s++ {
			fm, mm, _, err := partition.Randomized(g, s)
			if err != nil {
				return err
			}
			fl, ml, info, err := partition.RandomizedLasVegas(g, s)
			if err != nil {
				return err
			}
			mcTrees += float64(fm.Trees())
			lvTrees += float64(fl.Trees())
			restarts += float64(info.Restarts)
			extra += float64(ml.Rounds - mm.Rounds)
		}
		k := float64(seeds)
		t.Add(n, seeds, mcTrees/k, lvTrees/k, 2*partition.SqrtN(n), restarts/k, extra/k)
	}
	t.Fprint(w)
	return nil
}
