package exp

// topo_exp.go — E12, the implicit-topology and scenario-diversity
// experiment added with the Topology refactor. Part (a) demonstrates the
// point of the implicit forms: the topology's own footprint is O(1), so
// the step engine's memory is bounded by per-node protocol state and a
// 10⁷-node census fits where the materialized graph alone would cost
// gigabytes. Part (b) opens the heavy-tailed workloads (PAPERS.md,
// arXiv:0908.0976): the same protocols on Barabási–Albert scale-free and
// Watts–Strogatz small-world networks, where the degree distribution—not
// the diameter—shapes the cost.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/size"
)

func runE12(w io.Writer, full bool) error {
	ta := &Table{
		Title:  "E12a — implicit vs materialized ring: topology memory and census wall time",
		Header: []string{"spec", "form", "topo bytes", "bytes/node", "census n", "rounds", "wall ms"},
	}
	sizes := []int{100_000, 1_000_000}
	if full {
		sizes = append(sizes, 10_000_000)
	}
	for _, n := range sizes {
		spec := fmt.Sprintf("ring:%d", n)
		forms := []string{spec, "mat:" + spec}
		if n > 1_000_000 {
			// The point of the experiment: past 10⁶ only the implicit form
			// is worth materializing at all.
			forms = forms[:1]
		}
		for _, s := range forms {
			top, bytes, err := graph.TopoHeapCost(func() (graph.Topology, error) {
				return graph.ParseSpec(s, 1)
			})
			if err != nil {
				return fmt.Errorf("E12a %s: %w", s, err)
			}
			form := "implicit"
			if _, ok := top.(*graph.Graph); ok {
				form = "materialized"
			}
			t0 := time.Now()
			res, err := size.Census(top, 1)
			if err != nil {
				return fmt.Errorf("E12a %s census: %w", s, err)
			}
			if res.N != n {
				return fmt.Errorf("E12a %s: counted %d of %d", s, res.N, n)
			}
			ta.Add(spec, form, bytes, float64(bytes)/float64(n), res.N,
				res.Metrics.Rounds, time.Since(t0).Milliseconds())
		}
	}
	ta.Fprint(w)

	tb := &Table{
		Title: "E12b — heavy-tailed workloads: census and BFS forest on scale-free / small-world graphs",
		Header: []string{"graph", "n", "m", "max-deg", "census rounds", "census msgs",
			"forest trees", "forest rounds", "wall ms"},
	}
	n := 20_000
	if full {
		n = 200_000
	}
	cases := []struct{ name, spec string }{
		{"ba(attach=3)", fmt.Sprintf("ba:%d,3", n)},
		{"ws(k=6,beta=0.1)", fmt.Sprintf("ws:%d,6,0.1", n)},
		{"ring (baseline)", fmt.Sprintf("ring:%d", n)},
	}
	for _, c := range cases {
		top, err := graph.ParseSpec(c.spec, 1)
		if err != nil {
			return fmt.Errorf("E12b %s: %w", c.name, err)
		}
		maxDeg := 0
		for v := 0; v < top.N(); v++ {
			if d := top.Degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
		t0 := time.Now()
		cres, err := size.Census(top, 1)
		if err != nil {
			return fmt.Errorf("E12b %s census: %w", c.name, err)
		}
		if cres.N != top.N() {
			return fmt.Errorf("E12b %s: counted %d of %d", c.name, cres.N, top.N())
		}
		f, total, fmet, err := forest.BFS(top, 1)
		if err != nil {
			return fmt.Errorf("E12b %s forest: %w", c.name, err)
		}
		if total != top.N() {
			return fmt.Errorf("E12b %s: forest counted %d of %d", c.name, total, top.N())
		}
		st := f.Stats()
		tb.Add(c.name, top.N(), top.M(), maxDeg, cres.Metrics.Rounds, cres.Metrics.Messages,
			st.Trees, fmet.Rounds, time.Since(t0).Milliseconds())
	}
	tb.Fprint(w)
	return nil
}
