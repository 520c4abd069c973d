package exp

import (
	"fmt"
	"io"

	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resolve"
	"repro/internal/sim"
)

func expInputs(v graph.NodeID) int64 { return (int64(v)*2654435761 + 17) % 10_000 }

// runE3 is the headline comparison: time to compute a global sensitive
// function (sum) on rings, where d = n/2 maximizes the point-to-point
// baseline's Ω(d) cost while the broadcast baseline pays Ω(n). The
// multimedia algorithm's Õ(√n) should win for large n.
func runE3(w io.Writer, full bool) error {
	t := &Table{
		Title: "E3 — global sensitive functions on rings (§5): time in rounds",
		Header: []string{"n", "d", "√n", "mm rand+MB", "mm det+Cap", "p2p (Θ(d))",
			"broadcast (Θ(n))", "mm/√n", "p2p/d", "bcast/n"},
	}
	sizes := []int{64, 256}
	if full {
		sizes = []int{64, 256, 1024, 2048, 4096}
	}
	for _, n := range sizes {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			return err
		}
		mmR, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
			globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
		if err != nil {
			return fmt.Errorf("E3 n=%d mm-rand: %w", n, err)
		}
		mmD, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
			globalfunc.VariantDeterministic, globalfunc.StageCapetanakis)
		if err != nil {
			return fmt.Errorf("E3 n=%d mm-det: %w", n, err)
		}
		p2p, err := globalfunc.PointToPoint(g, 1, globalfunc.Sum, expInputs)
		if err != nil {
			return fmt.Errorf("E3 n=%d p2p: %w", n, err)
		}
		bc, err := globalfunc.BroadcastOnly(g, 1, globalfunc.Sum, expInputs, globalfunc.StageCapetanakis)
		if err != nil {
			return fmt.Errorf("E3 n=%d bcast: %w", n, err)
		}
		want := globalfunc.Reference(g, globalfunc.Sum, expInputs)
		for _, r := range []*globalfunc.Result{mmR, mmD, p2p, bc} {
			if r.Value != want {
				return fmt.Errorf("E3 n=%d: wrong value %d (want %d)", n, r.Value, want)
			}
		}
		d := n / 2
		t.Add(n, d, partition.SqrtN(n), mmR.Total.Rounds, mmD.Total.Rounds,
			p2p.Total.Rounds, bc.Total.Rounds,
			float64(mmR.Total.Rounds)/sqrt(n), float64(p2p.Total.Rounds)/float64(d),
			float64(bc.Total.Rounds)/float64(n))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  all four algorithms returned the reference value on every row")
	return nil
}

// runE4 compares the standard √n balance against the §5.1 improved balance
// for the fully deterministic pipeline.
func runE4(w io.Writer, full bool) error {
	t := &Table{
		Title: "E4 — §5.1 improved balance (deterministic pipeline, random graphs)",
		Header: []string{"n", "std trees", "std rounds", "balanced trees", "balanced rounds",
			"balanced/std"},
	}
	sizes := []int{64, 256}
	if full {
		sizes = []int{64, 256, 1024, 4096}
	}
	for _, n := range sizes {
		g, err := graph.RandomConnected(n, 2*n, 3)
		if err != nil {
			return err
		}
		std, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
			globalfunc.VariantDeterministic, globalfunc.StageCapetanakis)
		if err != nil {
			return err
		}
		bal, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
			globalfunc.VariantBalanced, globalfunc.StageCapetanakis)
		if err != nil {
			return err
		}
		t.Add(n, std.Trees, std.Total.Rounds, bal.Trees, bal.Total.Rounds,
			float64(bal.Total.Rounds)/float64(std.Total.Rounds))
	}
	t.Fprint(w)
	return nil
}

// runA3 compares the two global-stage scheduling protocols on identical
// contender sets.
func runA3(w io.Writer, full bool) error {
	t := &Table{
		Title:  "A3 — channel scheduling: Capetanakis vs Metcalfe–Boggs slots (n=256 id space)",
		Header: []string{"contenders k", "capetanakis slots", "cap/k", "mb slots (avg)", "mb/k"},
	}
	const n = 256
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		return err
	}
	ks := []int{1, 4, 16, 64}
	if full {
		ks = []int{1, 4, 16, 64, 256}
	}
	for _, k := range ks {
		contend := func(id int) bool { return id%(n/k) == 0 }
		res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
			id := int(c.ID())
			return &schedMachine{resolve.NewCapetanakisStep(c, n, contend(id), id, nil, 0)}
		})
		if err != nil {
			return err
		}
		capSlots := res.Metrics.Rounds - 1
		var mbTotal int
		seeds := int64(5)
		for s := int64(0); s < seeds; s++ {
			res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
				id := int(c.ID())
				return &schedMachine{resolve.NewMetcalfeBoggsStep(c, k, contend(id), id, nil, 0)}
			}, sim.WithSeed(s))
			if err != nil {
				return err
			}
			mbTotal += res.Metrics.Rounds - 1
		}
		mb := float64(mbTotal) / float64(seeds)
		t.Add(k, capSlots, float64(capSlots)/float64(k), mb, mb/float64(k))
	}
	t.Fprint(w)
	return nil
}

// schedMachine runs one channel-scheduling component from round 0 until it
// reports done.
type schedMachine struct {
	s interface {
		Begin() (done bool)
		Poll(in sim.Input) (done bool)
	}
}

func (m *schedMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		return m.s.Begin()
	}
	return m.s.Poll(in)
}

func (m *schedMachine) Result() any { return nil }
