package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/sim"
)

// runE11 scales the protocol suite to 10⁶-node rings — sizes where the
// engine's sleep/wake scheduling, not per-node stepping, sets the cost.
//
// Part (a) runs stages 2–3 of the §6 MST (core scheduling on the channel,
// then barrier-synchronized merge phases) as native machines over a
// locally-constructed O(√n)-free partition: contiguous ring segments, each
// an MST subtree (every ring edge except the heaviest is an MST edge). A
// coarse fragment count keeps the slot-listening work — the part of §6
// every node must stay awake for — proportional to k·log n slots, while
// the convergecast phases ride the barrier's pulse-sleep, so a million-node
// merge costs O(n) machine steps per phase instead of O(n·radius). The
// result is verified edge-for-edge against sequential Kruskal.
//
// Part (b) runs the fully-distributed coloring pipeline — the BFS
// spanning-forest protocol (sleep/wake wavefront), then the O(log* n)-round
// Cole–Vishkin/GPS/MIS coloring — and verifies the combinatorial spec.
func runE11(w io.Writer, full bool) error {
	sizes := []int{10_000, 100_000}
	if full {
		sizes = []int{10_000, 100_000, 1_000_000}
	}

	ta := &Table{
		Title: "E11a — native §6 MST merge at scale (ring, precomputed segment partition)",
		Header: []string{"n", "fragments", "phases", "rounds", "messages", "slots",
			"wall ms", "kruskal-match?"},
	}
	for _, n := range sizes {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			return err
		}
		const k = 16
		f, err := mst.RingSegmentForest(g, k)
		if err != nil {
			return fmt.Errorf("E11a n=%d: %w", n, err)
		}
		t0 := time.Now()
		res, err := mst.MultimediaFromForest(g, 1, f, &sim.Metrics{})
		if err != nil {
			return fmt.Errorf("E11a n=%d: %w", n, err)
		}
		d := time.Since(t0)
		want, err := graph.Kruskal(g)
		if err != nil {
			return err
		}
		match := "yes"
		if !res.MST.Equal(want) {
			match = "NO"
		}
		ta.Add(n, res.InitialFragments, res.Phases, res.Total.Rounds, res.Total.Messages,
			res.Total.Slots(), float64(d.Milliseconds()), match)
	}
	ta.Fprint(w)
	fmt.Fprintln(w)

	tb := &Table{
		Title: "E11b — distributed BFS forest + 3-coloring/MIS at scale (ring)",
		Header: []string{"n", "bfs rounds", "color rounds", "messages", "wall ms",
			"spec ok?"},
	}
	for _, n := range sizes {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		f, total, bmet, err := forest.BFS(g, 1)
		if err != nil {
			return fmt.Errorf("E11b n=%d bfs: %w", n, err)
		}
		colors, cmet, err := coloring.Distributed(f, 1)
		if err != nil {
			return fmt.Errorf("E11b n=%d coloring: %w", n, err)
		}
		d := time.Since(t0)
		ok := "yes"
		parent := coloring.ParentInts(f)
		if total != n || !coloring.IsLegalColoring(parent, colors) || !coloring.IsRootedMIS(parent, colors) {
			ok = "NO"
		}
		tb.Add(n, bmet.Rounds, cmet.Rounds, bmet.Messages+cmet.Messages,
			float64(d.Milliseconds()), ok)
	}
	tb.Fprint(w)
	return nil
}
