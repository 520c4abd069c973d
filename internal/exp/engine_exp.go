package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/size"
)

// runE9 sweeps the native census up to 10⁷-node rings and grids (full
// mode) on the implicit forms, whose O(1) topology footprint leaves the
// memory to per-node engine state: the step engine's sleep/wake activation
// makes each run cost O(n + m) machine steps, where a per-round engine
// would pay nodes × rounds.
func runE9(w io.Writer, full bool) error {
	tb := &Table{
		Title: "E9b — native step engine scaling: census (network size) to 10^7 nodes",
		Header: []string{"graph", "n", "rounds", "messages", "wall ms",
			"Mnode-rounds/s", "count ok?"},
	}
	sizes := []int{10_000, 100_000}
	if full {
		sizes = []int{10_000, 100_000, 1_000_000, 10_000_000}
	}
	for _, n := range sizes {
		for _, name := range []string{"ring", "grid"} {
			spec := fmt.Sprintf("ring:%d", n)
			if name == "grid" {
				spec = fmt.Sprintf("grid:%dx%[1]d", sqrtSide(n))
			}
			g, err := graph.ParseSpec(spec, 1)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := size.Census(g, 1)
			if err != nil {
				return fmt.Errorf("E9b %s n=%d: %w", name, g.N(), err)
			}
			d := time.Since(t0)
			ok := "yes"
			if res.N != g.N() {
				ok = "NO"
			}
			// Node-rounds an engine stepping every node every round would
			// schedule for the same run; sleep/wake activation skips almost
			// all of them, which is the scaling headroom being measured.
			nodeRounds := float64(g.N()) * float64(res.Metrics.Rounds)
			tb.Add(name, g.N(), res.Metrics.Rounds, res.Metrics.Messages,
				float64(d.Milliseconds()), nodeRounds/1e6/d.Seconds(), ok)
		}
	}
	tb.Fprint(w)
	return nil
}

// sqrtSide returns the side of the largest square grid with at most n nodes.
func sqrtSide(n int) int {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return side
}
