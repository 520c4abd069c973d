package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/async"
	"repro/internal/fault"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/sim"
	"repro/internal/size"
)

// runE5 reproduces §6: the multimedia MST equals Kruskal's exactly and its
// time grows like √n·log n, against the pure point-to-point Borůvka
// baseline whose time grows linearly in n.
func runE5(w io.Writer, full bool) error {
	t := &Table{
		Title: "E5 — minimum spanning tree (§6)",
		Header: []string{"graph", "n", "m", "frags", "phases", "mm rounds",
			"mm/(√n·lg n)", "boruvka rounds", "mm msgs", "kruskal?"},
	}
	for _, n := range sweepSizesCapped(full) {
		gs, err := partitionGraphs(n)
		if err != nil {
			return err
		}
		for _, name := range []string{"grid", "random"} {
			g := gs[name]
			res, err := mst.Multimedia(g, 1)
			if err != nil {
				return fmt.Errorf("E5 %s n=%d: %w", name, n, err)
			}
			want, err := graph.Kruskal(g)
			if err != nil {
				return err
			}
			match := "yes"
			if !res.MST.Equal(want) {
				match = "NO"
			}
			bor, err := mst.Boruvka(g, 1)
			if err != nil {
				return err
			}
			if !bor.MST.Equal(want) {
				return fmt.Errorf("E5 %s n=%d: boruvka mismatch", name, n)
			}
			lg := 1.0
			for v := 2; v < n; v *= 2 {
				lg++
			}
			t.Add(name, n, g.M(), res.InitialFragments, res.Phases, res.Total.Rounds,
				float64(res.Total.Rounds)/(sqrt(n)*lg), bor.Total.Rounds,
				res.Total.Messages, match)
		}
	}
	t.Fprint(w)
	return nil
}

// runE6 reproduces Corollary 4: the channel synchronizer doubles messages
// at most and costs a constant number of slots per simulated round. Each
// graph runs the same synchronous sum through async.Sync on the synchronous
// network and on an asynchronous one, a seeded delay plan installed as
// sim.DefaultFaults. The experiment fails on a run whose acknowledgements
// differ from its algorithm messages or that takes more than 2d+3 slots per
// simulated round (d the plan's delay: a message, its acknowledgement and
// the pulse), and on an asynchronous run whose sum, simulated rounds or
// algorithm messages differ from the synchronous run's.
func runE6(w io.Writer, full bool) error {
	t := &Table{
		Title:  "E6 — channel synchronizer overhead (§7.1, Corollary 4)",
		Header: []string{"graph", "n", "network", "rounds", "time (slots)", "slots/round", "alg msgs", "acks", "overhead"},
	}
	networks := []struct {
		name, dsl string
		d         int // the plan's message delay, in slots
	}{{"sync", "", 0}, {"async", "seed:7;delay:*@1-/p0.5/d1", 1}}
	oldFaults := sim.DefaultFaults
	defer func() { sim.DefaultFaults = oldFaults }()
	sizes := []int{16, 64}
	if full {
		sizes = []int{16, 64, 256, 1024}
	}
	for _, n := range sizes {
		gs, err := partitionGraphs(n)
		if err != nil {
			return err
		}
		for _, name := range []string{"ring", "grid"} {
			g := gs[name]
			var base *async.SyncResult
			for _, nw := range networks {
				where := fmt.Sprintf("E6 %s n=%d %s", name, n, nw.name)
				plan, err := fault.Parse(nw.dsl)
				if err != nil {
					return err
				}
				sim.DefaultFaults = plan
				results := make([]int64, g.N())
				var mu sync.Mutex
				res, err := async.Sync(g, 7, 50*g.N()+500,
					async.SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
				if err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
				wantV := int64(g.N()) * int64(g.N()+1) / 2
				perRound := float64(res.Metrics.Rounds) / float64(res.Rounds)
				switch {
				case results[0] != wantV:
					return fmt.Errorf("%s: value %d, want %d", where, results[0], wantV)
				case res.AckMsgs != res.AlgMsgs:
					return fmt.Errorf("%s: %d acknowledgements for %d algorithm messages", where, res.AckMsgs, res.AlgMsgs)
				case perRound > float64(2*nw.d+3):
					return fmt.Errorf("%s: %.2f slots per simulated round, over 2d+3 = %d", where, perRound, 2*nw.d+3)
				case base != nil && (res.Rounds != base.Rounds || res.AlgMsgs != base.AlgMsgs):
					return fmt.Errorf("%s: %d rounds and %d algorithm messages, synchronous network %d and %d",
						where, res.Rounds, res.AlgMsgs, base.Rounds, base.AlgMsgs)
				}
				if base == nil {
					base = res
				}
				t.Add(name, n, nw.name, res.Rounds, res.Metrics.Rounds, perRound,
					res.AlgMsgs, res.AckMsgs, res.Overhead())
			}
		}
	}
	t.Fprint(w)
	return nil
}

// runE7 reproduces §7.3 (exact deterministic size) and §7.4 (randomized
// estimation).
func runE7(w io.Writer, full bool) error {
	t := &Table{
		Title: "E7 — network size (§7.3 exact, §7.4 estimate)",
		Header: []string{"n", "exact n", "probe phases", "exact rounds", "rounds/√n",
			"est median", "est med ratio", "est [min,max] ratio"},
	}
	sizes := []int{30, 77, 256}
	if full {
		sizes = []int{30, 77, 256, 1000}
	}
	seeds := int64(9)
	if full {
		seeds = 51
	}
	for _, n := range sizes {
		g, err := graph.RandomConnected(n, 2*n, 3)
		if err != nil {
			return err
		}
		ex, err := size.Exact(g, 1, 0)
		if err != nil {
			return fmt.Errorf("E7 n=%d: %w", n, err)
		}
		if ex.N != n {
			return fmt.Errorf("E7: exact computed %d, want %d", ex.N, n)
		}
		var ratios []float64
		for s := int64(0); s < seeds; s++ {
			est, err := size.Estimate(g, s)
			if err != nil {
				return err
			}
			ratios = append(ratios, float64(est.Estimate)/float64(n))
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		t.Add(n, ex.N, ex.Phases, ex.Metrics.Rounds, float64(ex.Metrics.Rounds)/sqrt(n),
			med*float64(n), med, fmt.Sprintf("[%.2f, %.2f]", ratios[0], ratios[len(ratios)-1]))
	}
	t.Fprint(w)
	return nil
}

// runE8 probes the Ω(min{d,√n}) lower bound (§5.2) on its witness topology,
// the ray graph: at fixed n, the point-to-point baseline tracks d while the
// multimedia algorithm tracks √n; the best achievable time (min of the two,
// both being legal multimedia algorithms) tracks min{d,√n} up to constants
// and log factors, matching the lower bound's shape.
func runE8(w io.Writer, full bool) error {
	t := &Table{
		Title: "E8 — ray graphs at (near-)fixed n (§5.2 lower bound shape)",
		Header: []string{"rays", "rayLen", "n", "d", "√n", "min{d,√n}",
			"p2p rounds", "mm rounds", "best", "best/min{d,√n}"},
	}
	type shape struct{ rays, rayLen int }
	shapes := []shape{{2, 128}, {8, 32}, {32, 8}, {128, 2}}
	if full {
		shapes = []shape{{2, 512}, {8, 128}, {32, 32}, {128, 8}, {512, 2}}
	}
	for _, sh := range shapes {
		g, err := graph.Ray(sh.rays, sh.rayLen, 1)
		if err != nil {
			return err
		}
		n := g.N()
		d := 2 * sh.rayLen
		if sh.rays == 1 {
			d = sh.rayLen
		}
		p2p, err := globalfunc.PointToPoint(g, 1, globalfunc.Sum, expInputs)
		if err != nil {
			return fmt.Errorf("E8 rays=%d: %w", sh.rays, err)
		}
		mm, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, expInputs,
			globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
		if err != nil {
			return fmt.Errorf("E8 rays=%d: %w", sh.rays, err)
		}
		best := p2p.Total.Rounds
		if mm.Total.Rounds < best {
			best = mm.Total.Rounds
		}
		minDS := float64(d)
		if s := sqrt(n); s < minDS {
			minDS = s
		}
		t.Add(sh.rays, sh.rayLen, n, d, sqrt(n), minDS,
			p2p.Total.Rounds, mm.Total.Rounds, best, float64(best)/minDS)
	}
	t.Fprint(w)
	return nil
}
