package exp

// chaos2_exp.go — E13, the chaos-v2 degradation table: which protocols
// survive a network that is cut into components and healed, and stations
// that crash and later rejoin with reset state (crash-restart), alone and
// combined. Where E10 probes i.i.d. loss and channel jamming, E13 probes
// the structured adversary: scheduled partition windows (optionally
// recurring) and revival storms. Every cell is deterministic — the same
// plan produces the same outcome, drift, and fault counts at any worker
// count — so the table doubles as a regression surface for the v2 rule
// families.

import (
	"fmt"
	"io"

	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/sim"
	"repro/internal/size"
)

// runE13 produces the partition-heal / crash-restart degradation table.
func runE13(w io.Writer, full bool) error {
	t := &Table{
		Title: "E13 — chaos v2: protocol survival under partition-heal and crash-restart",
		Header: []string{"protocol", "fault plan", "outcome", "value", "baseline",
			"rounds", "part-drops", "restarted", "crashed"},
	}
	n := 48
	if full {
		n = 128
	}
	g, err := graph.RandomConnected(n, 2*n, 3)
	if err != nil {
		return err
	}
	protos := []chaosProto{
		{"census", func() (int64, *sim.Metrics, error) {
			res, err := size.Census(g, 1)
			if err != nil {
				return 0, nil, err
			}
			return int64(res.N), &res.Metrics, nil
		}},
		{"mst", func() (int64, *sim.Metrics, error) {
			res, err := mst.Multimedia(g, 1)
			if err != nil {
				return 0, nil, err
			}
			return int64(res.MST.Total), &res.Total, nil
		}},
		{"forest", func() (int64, *sim.Metrics, error) {
			f, _, met, err := forest.BFS(g, 1)
			if err != nil {
				return 0, nil, err
			}
			return int64(f.Trees()), &met, nil
		}},
		{"sum-rand-mb", func() (int64, *sim.Metrics, error) {
			res, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
				globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
			if err != nil {
				return 0, nil, err
			}
			return res.Value, &res.Total, nil
		}},
		{"coloring", func() (int64, *sim.Metrics, error) {
			f, _, bmet, err := forest.BFS(g, 1)
			if err != nil {
				return 0, nil, err
			}
			colors, cmet, err := coloring.Distributed(f, 1)
			if err != nil {
				return 0, nil, err
			}
			used := map[int]bool{}
			for _, c := range colors {
				used[c] = true
			}
			bmet.Add(&cmet)
			return int64(len(used)), &bmet, nil
		}},
	}
	plans := []chaosPlan{
		{"none", ""},
		{"part early", "seed:7;partition:2@3-6"},
		{"part late", "seed:7;partition:2@12-14"},
		{"part /e18", "seed:7;partition:2@4-6/e18"},
		{"restart early", "seed:7;crash:2@2;restart:2@4"},
		{"restart mid", "seed:7;crash:2@3;restart:2@9"},
		{"restart storm", "seed:7;crash:2@3;restart:2@9;crash:5@4;restart:5@12;crash:9@5;restart:9@15"},
	}
	if err := chaosTable(t, protos, plans, func(met *sim.Metrics) []any {
		return []any{met.PartitionedDrop, met.Restarted, met.Crashed}
	}); err != nil {
		return err
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  outcome: ok = completed; wedged = round budget exhausted (livelock);")
	fmt.Fprintln(w, "  failed = protocol-level error.")
	fmt.Fprintln(w, "  A restarted node re-runs its protocol from local round 0 with a fresh RNG")
	fmt.Fprintln(w, "  incarnation stream; survival therefore means the protocol tolerates a")
	fmt.Fprintln(w, "  mid-run joiner, not merely a lost station. The deterministic wavefront")
	fmt.Fprintln(w, "  protocols (census/mst/forest/coloring) assume fixed membership and wedge")
	fmt.Fprintln(w, "  under nearly every cut (mst's long multi-phase tail rides out a late")
	fmt.Fprintln(w, "  window); the randomized multimedia sum retries through partition windows")
	fmt.Fprintln(w, "  (drift when the cut overlaps collection, exact when the window misses")
	fmt.Fprintln(w, "  it) and absorbs a pre-protocol restart exactly.")
	return nil
}
