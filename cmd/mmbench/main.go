// Command mmbench runs the engine benchmark suite and writes the results
// as machine-readable JSON (BENCH_engines.json), so the performance
// trajectory is tracked commit over commit instead of living in scrollback.
//
// Two kinds of rows:
//
//   - testing.Benchmark rows (relay round-throughput at several worker
//     counts) with ns/op and allocs/op;
//   - scale rows (the E11 configurations: native MST merge, BFS forest +
//     coloring, census — each on a big ring) timed as single runs, with
//     nodes/sec derived from the wall clock.
//
// The -compare flag turns mmbench into a regression gate: current results
// are diffed row by row against a committed report and any >25% nodes/sec
// regression fails the run (`make bench-check`, CI's perf-smoke job).
//
// Usage:
//
//	mmbench                        # moderate sizes (~10⁵), seconds
//	mmbench -full                  # 10⁶-node scale rows (minutes)
//	mmbench -out BENCH_engines.json
//	mmbench -compare BENCH_engines.json -out /tmp/bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/size"
)

// Row is one benchmark result in BENCH_engines.json.
type Row struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Workers     int     `json:"workers,omitempty"` // step-engine worker count (0: engine default)
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	Rounds      int     `json:"rounds,omitempty"`
	Messages    int64   `json:"messages,omitempty"`
	// Memory rows (nodes_per_sec 0, so the -compare wall-clock gate skips
	// them): the heap cost of holding the topology itself.
	Bytes        uint64  `json:"bytes,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
	Note         string  `json:"note,omitempty"`
}

// Report is the whole file.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Full       bool   `json:"full"`
	Rows       []Row  `json:"rows"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
}

const relayRounds = 20

type relayMachine struct{ c *sim.StepCtx }

func (m relayMachine) Step(in sim.Input) bool {
	if in.Round == relayRounds {
		return true
	}
	m.c.Send(0, in.Round)
	return false
}

func (m relayMachine) Result() any { return nil }

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		out     = fs.String("out", "BENCH_engines.json", "output file ('-' for stdout)")
		full    = fs.Bool("full", false, "run the 10⁶-node scale rows (minutes)")
		nodes   = fs.Int("n", 100_000, "node count for the relay/census benchmark rows")
		compare = fs.String("compare", "", "baseline report to diff against; >25% nodes/sec regression fails")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and pprof /debug/pprof on this address while the suite runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Full: *full}

	// With -metrics-addr the whole suite is observed: an Obs becomes the
	// process-default recorder (every benchmarked run feeds the registry)
	// and the registry is served for scraping while rows run. Off by
	// default so the timed rows stay observation-free.
	if *metricsAddr != "" {
		o := obs.New(obs.Options{PprofLabels: true})
		prev := sim.DefaultRecorder
		sim.DefaultRecorder = o
		defer func() { sim.DefaultRecorder = prev }()
		srv, err := obs.Serve(*metricsAddr, o.Registry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mmbench: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
	}

	ring, err := graph.Ring(*nodes, 1)
	if err != nil {
		return err
	}

	// Round-throughput rows: a fixed-round relay protocol at several worker
	// counts (the sense-reversing barrier is what makes workers >1
	// worthwhile; on a single-core host the extra rows measure its
	// oversubscription overhead instead).
	relay := func(name string, workers int, run func() (*sim.Result, error)) error {
		var rounds int
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := run()
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.Rounds
			}
		})
		rep.Rows = append(rep.Rows, Row{
			Name: name, Nodes: *nodes, Workers: workers,
			NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(),
			NodesPerSec: float64(*nodes) * float64(rounds) / (float64(r.NsPerOp()) / 1e9),
			Rounds:      rounds,
			Note:        "node-rounds/sec over a 20-round all-nodes relay",
		})
		fmt.Fprintf(w, "%-32s %12d ns/op %10d allocs/op\n", name, r.NsPerOp(), r.AllocsPerOp())
		return nil
	}
	for _, workers := range []int{1, 4, 8} {
		name := "relay/step-native"
		if workers > 1 {
			name = fmt.Sprintf("relay/step-native-w%d", workers)
		}
		if err := relay(name, workers, func() (*sim.Result, error) {
			return sim.RunStep(ring, func(c *sim.StepCtx) sim.Machine { return relayMachine{c: c} },
				sim.WithWorkers(workers))
		}); err != nil {
			return err
		}
	}

	// Phase-breakdown rows: where a relay round's time goes — step compute
	// vs delivery vs barrier wait — per worker count. This is the
	// measurement the ROADMAP's multicore campaign reads.
	if err := phaseRows(w, rep, ring, *nodes); err != nil {
		return err
	}

	// Scale rows: the E11 configurations, one timed run each on the step
	// engine.
	scaleN := *nodes
	if *full {
		scaleN = 1_000_000
	}
	if err := scaleRows(w, rep, scaleN); err != nil {
		return err
	}

	// Memory rows: bytes/node of holding each topology form of the same
	// ring spec — the axis the implicit forms exist for.
	if err := memRows(w, rep, scaleN); err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := w.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d rows)\n", *out, len(rep.Rows))
	}

	if *compare != "" {
		return compareReports(w, rep, *compare)
	}
	return nil
}

// regressionTolerance: a row fails the -compare gate when its nodes/sec
// drops below this fraction of the baseline's, or its allocs/op grow
// beyond 1/fraction of the baseline's.
const regressionTolerance = 0.75

// allocsSlack is the absolute allocs/op growth always tolerated, so the
// proportional gate stays meaningful against a zero-alloc baseline (where
// any ratio is infinite) and doesn't trip on one-allocation jitter atop
// tiny baselines.
const allocsSlack = 16

// bytesPerNodeSlack is the absolute bytes/node growth always tolerated by
// the memory gate: the O(1)-topology rows sit at micro-bytes/node, where
// any proportional bound is noise.
const bytesPerNodeSlack = 16.0

// compareReports diffs the fresh report against a committed baseline. Rows
// are matched by name; rows whose node counts differ (e.g. quick-mode scale
// rows against a -full baseline) are skipped, new rows pass by default, and
// any matched row slower than regressionTolerance × baseline fails. The
// allocs/op check is the machine-independent half of the gate: wall-clock
// rows wobble with the runner's hardware and load, but a steady-state
// allocation regression reproduces exactly everywhere. When the baseline
// was recorded at a different GOMAXPROCS the machines aren't comparable —
// a 1-core container baseline vs a multi-core CI runner would fail (or
// absolve) wall-clock rows on hardware shape alone — so nodes/sec is
// skipped and only the allocs/op half and row presence gate.
func compareReports(w io.Writer, cur *Report, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("compare baseline %s: %w", baselinePath, err)
	}
	baseRows := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Name] = r
	}
	sameShape := cur.GOMAXPROCS == base.GOMAXPROCS
	if !sameShape {
		fmt.Fprintf(w, "compare: gomaxprocs %d vs baseline %d: wall-clock rows not comparable, gating allocs/op and row presence only\n",
			cur.GOMAXPROCS, base.GOMAXPROCS)
	}
	var regressions []string
	matched := make(map[string]bool, len(cur.Rows))
	for _, r := range cur.Rows {
		matched[r.Name] = true
		b, ok := baseRows[r.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "compare: %-32s NEW (no baseline row)\n", r.Name)
		case b.Nodes != r.Nodes:
			fmt.Fprintf(w, "compare: %-32s skipped (n=%d vs baseline n=%d)\n", r.Name, r.Nodes, b.Nodes)
		case b.BytesPerNode > 0 && r.BytesPerNode > 0:
			// Memory rows: bytes/node gates exactly like nodes/sec — growth
			// past 1/tolerance × baseline fails. Live-heap measurements are
			// machine-shape independent, so this half always gates.
			ratio := r.BytesPerNode / b.BytesPerNode
			verdict := "ok"
			if ratio > 1/regressionTolerance && r.BytesPerNode > b.BytesPerNode+bytesPerNodeSlack {
				verdict = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.2f -> %.2f bytes/node (%.2fx)", r.Name, b.BytesPerNode, r.BytesPerNode, ratio))
			}
			fmt.Fprintf(w, "compare: %-32s %.2fx baseline bytes/node  %s\n", r.Name, ratio, verdict)
		case b.NodesPerSec <= 0:
			fmt.Fprintf(w, "compare: %-32s skipped (degenerate baseline)\n", r.Name)
		default:
			ratio := r.NodesPerSec / b.NodesPerSec
			verdict := "ok"
			if sameShape && ratio < regressionTolerance {
				verdict = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f -> %.0f nodes/sec (%.2fx)", r.Name, b.NodesPerSec, r.NodesPerSec, ratio))
			}
			if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)/regressionTolerance &&
				r.AllocsPerOp > b.AllocsPerOp+allocsSlack {
				verdict = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %d -> %d allocs/op", r.Name, b.AllocsPerOp, r.AllocsPerOp))
			}
			fmt.Fprintf(w, "compare: %-32s %.2fx baseline  %s\n", r.Name, ratio, verdict)
		}
	}
	// A baseline row the fresh report no longer produces is lost coverage,
	// not a pass: fail loudly instead of letting a renamed or deleted
	// benchmark silently drop out of the gate.
	for _, b := range base.Rows {
		if !matched[b.Name] {
			fmt.Fprintf(w, "compare: %-32s MISSING (baseline row not in current report)\n", b.Name)
			regressions = append(regressions, fmt.Sprintf("%s: baseline row missing from current report", b.Name))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d row(s) failed the gate vs %s: %v", len(regressions), baselinePath, regressions)
	}
	fmt.Fprintf(w, "compare: no row regressed >%.0f%% vs %s\n", (1-regressionTolerance)*100, baselinePath)
	return nil
}

// phaseRows runs the native relay once per worker count with an obs
// recorder attached and emits one row per engine phase: ns_per_op is the
// phase's total nanoseconds across the run, and the note carries the
// per-span p50/p95/max from the duration histogram. nodes_per_sec is 0 so
// the -compare wall-clock gate skips these rows (phase splits shift with
// hardware shape; the trajectory is informational). The observed run is
// separate from the relay benchmark rows above, whose timings stay
// recorder-free.
func phaseRows(w io.Writer, rep *Report, g *graph.Graph, n int) error {
	for _, workers := range []int{1, 4} {
		o := obs.New(obs.Options{})
		if _, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine { return relayMachine{c: c} },
			sim.WithWorkers(workers), sim.WithRecorder(o)); err != nil {
			return err
		}
		for p := sim.Phase(0); p < sim.NumPhases; p++ {
			s := o.PhaseSummary(p)
			if s.Count == 0 {
				// The inline (workers=1) path has no barrier phase.
				continue
			}
			name := fmt.Sprintf("phase/relay-native-w%d/%s", workers, p)
			rep.Rows = append(rep.Rows, Row{
				Name: name, Nodes: n, Workers: workers,
				NsPerOp: s.Sum, Rounds: relayRounds,
				Note: fmt.Sprintf("total %s ns over one observed relay run; per span p50=%d p95=%d max=%d ns (%d spans)",
					p, s.P50, s.P95, s.Max, s.Count),
			})
			fmt.Fprintf(w, "%-32s %12d ns total  (p50=%d p95=%d max=%d ns/span, %d spans)\n",
				name, s.Sum, s.P50, s.P95, s.Max, s.Count)
		}
	}
	return nil
}

// memRows records the heap footprint of the two topology forms of one
// ring spec. The implicit form's bytes are O(1) (the row shows ~0
// bytes/node at any scale); the materialized form pays for the edge list
// plus two weight-sorted adjacency halves per edge.
func memRows(w io.Writer, rep *Report, n int) error {
	for _, form := range []struct{ name, spec string }{
		{"mem/ring-implicit", fmt.Sprintf("ring:%d", n)},
		{"mem/ring-materialized", fmt.Sprintf("mat:ring:%d", n)},
	} {
		spec := form.spec
		_, bytes, err := graph.TopoHeapCost(func() (graph.Topology, error) {
			return graph.ParseSpec(spec, 1)
		})
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, Row{
			Name: form.name, Nodes: n, Bytes: bytes,
			BytesPerNode: float64(bytes) / float64(n),
			Note:         "heap cost of holding the topology (" + form.spec + ")",
		})
		fmt.Fprintf(w, "%-32s %12d bytes  (%.2f bytes/node)\n", form.name, bytes, float64(bytes)/float64(n))
	}
	// Engine-footprint rows: the live heap a running census actually holds —
	// topology plus the step engine's node arrays, machine slab, and shard
	// arenas. This is the number that decides how many nodes fit in a box,
	// and the axis the SoA compaction moved; the -compare gate holds it.
	for _, form := range []struct{ name, spec string }{
		{"mem/census-ring-implicit", fmt.Sprintf("ring:%d", n)},
		{"mem/census-ring-materialized", fmt.Sprintf("mat:ring:%d", n)},
	} {
		bytes, err := censusFootprint(form.spec, n)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, Row{
			Name: form.name, Nodes: n, Bytes: bytes,
			BytesPerNode: float64(bytes) / float64(n),
			Note:         "max live heap (post-GC) while a census of " + form.spec + " runs",
		})
		fmt.Fprintf(w, "%-32s %12d bytes  (%.2f bytes/node)\n", form.name, bytes, float64(bytes)/float64(n))
	}
	return nil
}

// censusFootprint runs one census over spec and returns the peak live heap
// the run held. A sampler goroutine forces a collection every interval and
// reads HeapAlloc right after, so each sample sees only reachable bytes —
// the engine's steady state allocates nothing, which makes the post-GC
// samples flat and reproducible. The forced collections slow this run down;
// the timed rows are measured separately.
func censusFootprint(spec string, n int) (uint64, error) {
	g, err := graph.ParseSpec(spec, 1)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	stop := make(chan struct{})
	sampled := make(chan uint64, 1)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			case <-tick.C:
				runtime.GC()
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	res, err := size.Census(g, 1)
	close(stop)
	peak := <-sampled
	if err != nil {
		return 0, err
	}
	if res.N != n {
		return 0, fmt.Errorf("census footprint: n = %d, want %d", res.N, n)
	}
	if peak <= before.HeapAlloc {
		// The run finished before the first sample (tiny n): fall back to
		// total allocation over the run, an upper bound on its live peak.
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, nil
	}
	return peak - before.HeapAlloc, nil
}

// scaleRows times the ported protocol suite on one big ring.
func scaleRows(w io.Writer, rep *Report, n int) error {
	g, err := graph.Ring(n, 1)
	if err != nil {
		return err
	}
	add := func(name string, d time.Duration, rounds int, msgs int64, note string) {
		rep.Rows = append(rep.Rows, Row{
			Name: name, Nodes: n, NsPerOp: d.Nanoseconds(),
			NodesPerSec: float64(n) / d.Seconds(), Rounds: rounds, Messages: msgs, Note: note,
		})
		fmt.Fprintf(w, "%-32s %12d ns/op  (%d nodes, %.2fs wall)\n", name, d.Nanoseconds(), n, d.Seconds())
		// Isolate the rows: one row's garbage must not tax the next's clock.
		runtime.GC()
	}
	runtime.GC()

	t0 := time.Now()
	census, err := size.Census(g, 1)
	if err != nil {
		return err
	}
	if census.N != n {
		return fmt.Errorf("census = %d, want %d", census.N, n)
	}
	add("scale/census-step", time.Since(t0), census.Metrics.Rounds, census.Metrics.Messages,
		"native BFS census, sleep/wake wavefront")

	t0 = time.Now()
	f, total, bmet, err := forest.BFS(g, 1)
	if err != nil {
		return err
	}
	if total != n {
		return fmt.Errorf("bfs total = %d, want %d", total, n)
	}
	colors, cmet, err := coloring.Distributed(f, 1)
	if err != nil {
		return err
	}
	parent := coloring.ParentInts(f)
	if !coloring.IsLegalColoring(parent, colors) || !coloring.IsRootedMIS(parent, colors) {
		return fmt.Errorf("coloring at n=%d violates the spec", n)
	}
	add("scale/forest+coloring-step", time.Since(t0), bmet.Rounds+cmet.Rounds,
		bmet.Messages+cmet.Messages, "distributed BFS forest, then 3-coloring + rooted MIS")

	sf, err := mst.RingSegmentForest(g, 16)
	if err != nil {
		return err
	}
	t0 = time.Now()
	res, err := mst.MultimediaFromForest(g, 1, sf, &sim.Metrics{})
	if err != nil {
		return err
	}
	d := time.Since(t0)
	want, err := graph.Kruskal(g)
	if err != nil {
		return err
	}
	if !res.MST.Equal(want) {
		return fmt.Errorf("mst at n=%d does not match kruskal", n)
	}
	add("scale/mst-merge-step", d, res.Total.Rounds, res.Total.Messages,
		"native §6 merge over a 16-segment ring partition, verified vs Kruskal")
	return nil
}
