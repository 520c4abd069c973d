package exp

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/partition"
)

// runA4 quantifies ablation A4: sequential (GHS-style)
// minimum-outgoing-edge testing charges each rejected edge once overall,
// keeping messages at O(m + n·log n·log*n), while parallel testing re-tests
// accepted edges every phase (O(m·log n) messages) in exchange for fewer
// rounds per phase.
func runA4(w io.Writer, full bool) error {
	t := &Table{
		Title: "A4 — MWOE search: sequential (paper) vs parallel edge testing",
		Header: []string{"graph", "n", "m", "seq rounds", "seq msgs",
			"par rounds", "par msgs", "msgs ratio", "rounds ratio"},
	}
	for _, n := range sweepSizesCapped(full) {
		gs, err := partitionGraphs(n)
		if err != nil {
			return err
		}
		for _, name := range []string{"ring", "random"} {
			g := gs[name]
			fs, ms, _, err := partition.Deterministic(g, 1)
			if err != nil {
				return fmt.Errorf("A4 seq %s n=%d: %w", name, n, err)
			}
			fp, mp, _, err := partition.DeterministicParallelMWOE(g, 1)
			if err != nil {
				return fmt.Errorf("A4 par %s n=%d: %w", name, n, err)
			}
			// Both must produce valid MST-subforest partitions.
			mst, err := graph.Kruskal(g)
			if err != nil {
				return err
			}
			if err := fs.SubtreeOfMST(mst); err != nil {
				return err
			}
			if err := fp.SubtreeOfMST(mst); err != nil {
				return err
			}
			t.Add(name, n, g.M(), ms.Rounds, ms.Messages, mp.Rounds, mp.Messages,
				float64(mp.Messages)/float64(ms.Messages),
				float64(mp.Rounds)/float64(ms.Rounds))
		}
	}
	t.Fprint(w)
	return nil
}
