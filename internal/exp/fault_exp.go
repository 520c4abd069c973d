package exp

// fault_exp.go — E10, the chaos-engine robustness experiment: how the
// module's protocols degrade when the fault engine (internal/fault) crashes
// stations, loses or delays messages, and jams the multiaccess channel.
// Two claims are probed:
//
//  1. The channel adversary cannot touch a pure point-to-point protocol:
//     the native step census stays exact at 10⁵ (and with -full 10⁶) nodes
//     under 100% jamming, and tolerates delay jitter with only a round
//     overhead.
//
//  2. Protocols that assume the fault-free model degrade legibly: each
//     (protocol, fault plan) cell reports whether the run completed, its
//     result drift from the fault-free baseline, and what it cost. Wedged
//     runs are cut off by a bounded round budget.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/size"
)

// runE10 produces the chaos tables.
func runE10(w io.Writer, full bool) error {
	if err := runE10Census(w, full); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return runE10Degradation(w, full)
}

// runE10Census is the scale half: a jammed 10⁵–10⁶-node census must stay
// exact — the multiaccess adversary is powerless against the point-to-point
// network, and delay jitter costs rounds, not correctness.
func runE10Census(w io.Writer, full bool) error {
	t := &Table{
		Title:  "E10 — chaos engine, part 1: native step census under channel/link adversaries",
		Header: []string{"n", "fault plan", "n exact?", "rounds", "jammed slots", "delayed msgs", "messages"},
	}
	sizes := []int{100_000}
	if full {
		sizes = append(sizes, 1_000_000)
	}
	plans := []struct{ name, dsl string }{
		{"none", ""},
		{"jam 100%", "jam:1-"},
		{"jam 50%", "seed:3;jam:1-/p0.5"},
		{"delay 20% d1", "seed:3;delay:*@1-/d1/p0.2"},
	}
	for _, n := range sizes {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			return err
		}
		for _, p := range plans {
			plan, err := fault.Parse(p.dsl)
			if err != nil {
				return err
			}
			res, err := size.Census(g, 1, sim.WithFaults(plan))
			if err != nil {
				return fmt.Errorf("E10 census n=%d plan=%q: %w", n, p.name, err)
			}
			if res.N != n {
				return fmt.Errorf("E10 census n=%d plan=%q: counted %d", n, p.name, res.N)
			}
			t.Add(n, p.name, "yes", res.Metrics.Rounds, res.Metrics.SlotsJammed,
				res.Metrics.Delayed, res.Metrics.Messages)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  every faulted census counted n exactly")
	return nil
}

// chaosOutcome classifies a faulted run's error.
func chaosOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, sim.ErrMaxRounds):
		return "wedged"
	default:
		return "failed"
	}
}

// chaosProto is one protocol of a chaos degradation table: run executes it
// under the process-default fault plan and reports its value and cost.
type chaosProto struct {
	name string
	run  func() (int64, *sim.Metrics, error)
}

// chaosPlan is one fault plan of a chaos degradation table.
type chaosPlan struct{ name, dsl string }

// chaosTable runs every protocol under every plan, installed as
// sim.DefaultFaults, and adds one row per (protocol, plan) to t: outcome,
// value, the protocol's baseline value, rounds, then the metric columns
// cols reads from a completed run. The first plan is the fault-free
// baseline, which every protocol must complete.
func chaosTable(t *Table, protos []chaosProto, plans []chaosPlan, cols func(*sim.Metrics) []any) error {
	// Wedged runs livelock until the round budget ends; bound it so every
	// cell costs at most a few thousand rounds. Fault-free baselines on
	// these sizes finish far below the cap.
	oldFaults, oldMax := sim.DefaultFaults, sim.DefaultMaxRounds
	sim.DefaultMaxRounds = 4000
	defer func() { sim.DefaultFaults, sim.DefaultMaxRounds = oldFaults, oldMax }()

	for _, proto := range protos {
		var baseline int64
		for i, p := range plans {
			plan, err := fault.Parse(p.dsl)
			if err != nil {
				return err
			}
			sim.DefaultFaults = plan
			value, met, err := proto.run()
			sim.DefaultFaults = oldFaults
			if i == 0 {
				if err != nil {
					return fmt.Errorf("%s baseline: %w", proto.name, err)
				}
				baseline = value
			}
			row := []any{proto.name, p.name, chaosOutcome(err)}
			if err != nil {
				row = append(row, "-", baseline)
				for len(row) < len(t.Header) {
					row = append(row, "-")
				}
			} else {
				row = append(append(row, value, baseline, met.Rounds), cols(met)...)
			}
			t.Add(row...)
		}
	}
	return nil
}

// runE10Degradation is the degradation half: partition, census, and the
// randomized global sum under crash fractions, jam rates, and message loss.
func runE10Degradation(w io.Writer, full bool) error {
	t := &Table{
		Title: "E10 — chaos engine, part 2: protocol degradation vs fault plan",
		Header: []string{"protocol", "fault plan", "outcome", "value", "baseline",
			"rounds", "crashed", "lost", "jammed"},
	}
	n := 48
	if full {
		n = 256
	}
	g, err := graph.RandomConnected(n, 2*n, 3)
	if err != nil {
		return err
	}
	protos := []chaosProto{
		{"partition-det", func() (int64, *sim.Metrics, error) {
			f, met, _, err := partition.Deterministic(g, 1)
			if err != nil {
				return 0, nil, err
			}
			return int64(f.Trees()), met, nil
		}},
		{"census", func() (int64, *sim.Metrics, error) {
			res, err := size.Census(g, 1)
			if err != nil {
				return 0, nil, err
			}
			return int64(res.N), &res.Metrics, nil
		}},
		{"sum-rand-mb", func() (int64, *sim.Metrics, error) {
			res, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
				globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
			if err != nil {
				return 0, nil, err
			}
			return res.Value, &res.Total, nil
		}},
	}
	plans := []chaosPlan{
		{"none", ""},
		{"crash 5%", "seed:7;crashfrac:0.05@1"},
		{"crash 15%", "seed:7;crashfrac:0.15@1"},
		{"jam 30%", "seed:7;jam:1-/p0.3"},
		{"loss 2%", "seed:7;drop:*@1-/p0.02"},
		{"crash5+jam30", "seed:7;crashfrac:0.05@1;jam:1-/p0.3"},
	}
	if err := chaosTable(t, protos, plans, func(met *sim.Metrics) []any {
		return []any{met.Crashed, met.DroppedFault, met.SlotsJammed}
	}); err != nil {
		return err
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  outcome: ok = completed; wedged = round budget exhausted (livelock);")
	fmt.Fprintln(w, "  value vs baseline = drift")
	return nil
}
