// Command mmnet runs one multimedia-network algorithm on one generated
// topology and prints the paper's complexity measures.
//
// Usage examples:
//
//	mmnet -graph ring:256 -algo partition-det
//	mmnet -graph random:512,1024 -algo mst
//	mmnet -graph grid:400 -algo sum -variant rand -stage mb
//	mmnet -graph ray:16,16 -algo p2p-sum
//	mmnet -graph ring:100 -algo count
//	mmnet -graph ring:256 -algo mst -workers 4
//	mmnet -graph ring:1000000 -algo census
//	mmnet -graph ring:100000 -algo census -faults jam:1-
//	mmnet -graph random:256,256 -algo sum -faults 'jam:1-40/p0.5;drop:3@2-'
//	mmnet -graph ring:64 -algo count -json
//
// Every -graph spec carries its own size (see graph.ParseSpec); a bare
// family name such as "ring" is an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/async"
	"repro/internal/coloring"
	"repro/internal/fault"
	"repro/internal/forest"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/replay"
	"repro/internal/resolve"
	"repro/internal/sim"
	"repro/internal/size"
	"repro/internal/snapshot"
)

// algoNames is the canonical -algo registry. Every entry must be claimed by
// a differential-test runner in internal/difftest (enforced by
// TestEveryAlgoHasEquivalenceCoverage).
var algoNames = []string{
	"partition-det", "partition-rand", "partition-lv",
	"mst", "mst-boruvka",
	"sum", "min", "p2p-sum", "bcast-sum",
	"count", "census", "estimate",
	"elect", "snapshot", "coloring", "forest", "sync-sum",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmnet:", err)
		os.Exit(1)
	}
}

// report is one algorithm run's outcome in both human and machine form.
type report struct {
	lines   []string       // human-readable lines, printed before the metrics
	result  map[string]any // machine-readable fields for -json
	metrics *sim.Metrics
}

func (r *report) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) set(key string, v any) {
	if r.result == nil {
		r.result = make(map[string]any)
	}
	r.result[key] = v
}

// setSimDefaults installs the process-wide simulator defaults the flags
// describe and returns a restore function (keeps tests hermetic). The
// recorder rides along so every inner run of a multi-stage algorithm is
// observed, not just the outermost one.
func setSimDefaults(workers int, plan *fault.Plan, maxRounds int, rec sim.Recorder) func() {
	oldW, oldF, oldM, oldR := sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder
	sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder = workers, plan, maxRounds, rec
	return func() {
		sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder = oldW, oldF, oldM, oldR
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mmnet", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		gname     = fs.String("graph", "random:256,256", graph.SpecHelp())
		seed      = fs.Int64("seed", 1, "master seed")
		algo      = fs.String("algo", "partition-det", strings.Join(algoNames, "|"))
		variant   = fs.String("variant", "det", "multimedia function variant: det|balanced|rand")
		stage     = fs.String("stage", "cap", "global stage: cap|mb")
		workers   = fs.Int("workers", 0, "step-engine worker count (0 = GOMAXPROCS)")
		jsonOut   = fs.Bool("json", false, "emit the run as one machine-readable JSON object on stdout")
		faults    = fs.String("faults", "", "fault plan DSL, e.g. 'crash:7@10;jam:4-12/p0.5;drop:3@5-'; seed 1 unless it pins seed:N (see README, Fault model)")
		maxRounds = fs.Int("max-rounds", 0, "round budget per run (0 = graph-derived default); bound wedged faulted runs")

		transcriptPath = fs.String("transcript", "", "stream the run's binary transcript to this file (.gz suffix = gzip); single-run protocols (census|estimate) only")
		ckptPath       = fs.String("checkpoint", "", "checkpoint sink file; a %d in the name is replaced by the capture round, otherwise the latest capture wins (census|estimate)")
		ckptEvery      = fs.Int("checkpoint-every", 0, "capture a checkpoint every N rounds (requires -checkpoint)")
		ckptAt         = fs.String("checkpoint-at", "", "comma-separated rounds to checkpoint at (requires -checkpoint)")
		resumePath     = fs.String("resume", "", "resume from this checkpoint instead of round 0 (census|estimate; seed, faults, and round budget come from the checkpoint)")

		tracePath   = fs.String("trace", "", "write engine phase spans as Chrome trace_event JSON to this file (load in Perfetto or about:tracing)")
		seriesPath  = fs.String("series", "", "stream per-round NDJSON time series to this file ('-' = stdout)")
		seriesEvery = fs.Int("series-every", 1, "aggregate this many rounds per series row (column sums stay exact at any factor)")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and pprof /debug/pprof on this address for the run's duration (e.g. localhost:9100)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	plan, err := fault.FromFlag(*faults)
	if err != nil {
		return err
	}

	g, err := graph.ParseSpec(*gname, *seed)
	if err != nil {
		return err
	}
	engineLabel := sim.EngineStep.String()
	if *algo == "census" {
		engineLabel = "step (native protocol)"
	}

	simOpts, closeTranscript, err := ckptTranscriptOpts(*algo, *transcriptPath, *ckptPath, *ckptEvery, *ckptAt, *resumePath)
	if err != nil {
		return err
	}

	// Observability: any of -trace/-series/-metrics-addr builds an Obs and
	// installs it as the run's default recorder, so every sim run the
	// algorithm performs — including inner runs of multi-stage protocols —
	// lands in the same trace, series, and registry. By the recorder
	// contract none of this changes the transcript.
	var o *obs.Obs
	var seriesFile *os.File
	if *tracePath != "" || *seriesPath != "" || *metricsAddr != "" {
		opts := obs.Options{
			Trace:       *tracePath != "",
			PprofLabels: *tracePath != "" || *metricsAddr != "",
			SeriesEvery: *seriesEvery,
		}
		if *seriesPath != "" {
			var sw io.Writer = w
			if *seriesPath != "-" {
				if seriesFile, err = os.Create(*seriesPath); err != nil {
					return err
				}
				sw = seriesFile
			}
			opts.Series = sw
			opts.Header = obs.SeriesHeader{
				Algo: *algo, Graph: *gname, N: g.N(), Seed: *seed,
				Engine: engineLabel, Workers: *workers,
			}
			if plan != nil {
				opts.Header.Faults = plan.String()
			}
		}
		o = obs.New(opts)
		if *metricsAddr != "" {
			srv, err := obs.Serve(*metricsAddr, o.Registry())
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "mmnet: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
		}
	}
	var rec sim.Recorder
	if o != nil {
		rec = o
	}
	defer setSimDefaults(*workers, plan, *maxRounds, rec)()

	var rep *report
	if *resumePath != "" {
		rep, err = runResume(*algo, g, *resumePath, simOpts)
	} else {
		rep, err = runAlgo(*algo, g, *seed, *variant, *stage, simOpts...)
	}
	if cerr := closeTranscript(); cerr != nil && err == nil {
		err = fmt.Errorf("transcript: %w", cerr)
	}
	if err != nil {
		return err
	}

	if o != nil {
		if err := o.Close(); err != nil {
			return fmt.Errorf("series: %w", err)
		}
		if seriesFile != nil {
			if err := seriesFile.Close(); err != nil {
				return err
			}
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			if err := o.WriteTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if *jsonOut {
		obj := map[string]any{
			"graph":   *gname,
			"n":       g.N(),
			"m":       g.M(),
			"engine":  engineLabel,
			"workers": *workers,
			"algo":    *algo,
			"seed":    *seed,
			"result":  rep.result,
			"metrics": rep.metrics,
		}
		if plan != nil {
			obj["faults"] = plan.String()
		}
		enc := json.NewEncoder(w)
		return enc.Encode(obj)
	}

	fmt.Fprintf(w, "graph=%s n=%d m=%d diameter>=%d sqrt(n)=%d engine=%s workers=%d\n",
		*gname, g.N(), g.M(), graph.DiameterLowerBound(g), partition.SqrtN(g.N()), engineLabel, *workers)
	if plan != nil {
		fmt.Fprintf(w, "faults=%s\n", plan)
	}
	for _, line := range rep.lines {
		fmt.Fprintln(w, line)
	}
	printMetrics(w, rep.metrics)
	if o != nil {
		printPhases(w, o)
	}
	return nil
}

// printPhases appends the per-phase duration digest to the human report,
// then the workers' idle time at the phase gate.
func printPhases(w io.Writer, o *obs.Obs) {
	line := func(label string, s obs.Summary) {
		if s.Count > 0 {
			fmt.Fprintf(w, "%-13s p50=%s p95=%s max=%s total=%s (%d spans)\n",
				label, ns(s.P50), ns(s.P95), ns(s.Max), ns(s.Sum), s.Count)
		}
	}
	for p := sim.Phase(0); p < sim.NumPhases; p++ {
		line("phase "+p.String(), o.PhaseSummary(p))
	}
	line("idle", o.IdleSummary())
}

// ns renders a nanosecond count with a unit suffix.
func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fus", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}

// ckptTranscriptOpts validates and wires the -transcript/-checkpoint*/-resume
// flags into sim options. These flags talk to the engine of a single run, so
// they are limited to the protocols (census, estimate) whose execution is
// exactly one sim.RunStep.
func ckptTranscriptOpts(algo, transcriptPath, ckptPath string, every int, atList, resumePath string) (opts []sim.Option, closer func() error, err error) {
	closer = func() error { return nil }
	if transcriptPath == "" && ckptPath == "" && every == 0 && atList == "" && resumePath == "" {
		return nil, closer, nil
	}
	if algo != "census" && algo != "estimate" {
		return nil, nil, fmt.Errorf("-transcript/-checkpoint/-resume need a single-run protocol (census|estimate), not %q", algo)
	}
	if (every > 0 || atList != "") && ckptPath == "" {
		return nil, nil, errors.New("-checkpoint-every/-checkpoint-at need -checkpoint FILE")
	}
	if ckptPath != "" && every == 0 && atList == "" {
		return nil, nil, errors.New("-checkpoint needs -checkpoint-every N and/or -checkpoint-at ROUNDS")
	}
	if transcriptPath != "" {
		f, err := os.Create(transcriptPath)
		if err != nil {
			return nil, nil, err
		}
		tw := sim.NewTranscriptWriter(f, strings.HasSuffix(transcriptPath, ".gz"))
		opts = append(opts, sim.WithTranscript(tw))
		closer = func() error {
			if err := tw.Close(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if ckptPath != "" {
		spec := &sim.CheckpointSpec{Every: every, Sink: func(cp *sim.Checkpoint) error {
			return writeCheckpointFile(ckptPath, cp)
		}}
		for _, field := range strings.Split(atList, ",") {
			if field = strings.TrimSpace(field); field == "" {
				continue
			}
			r, err := strconv.Atoi(field)
			if err != nil || r < 1 {
				return nil, nil, fmt.Errorf("-checkpoint-at: bad round %q", field)
			}
			spec.At = append(spec.At, r)
		}
		opts = append(opts, sim.WithCheckpoints(spec))
	}
	return opts, closer, nil
}

// writeCheckpointFile writes one checkpoint; a %d in the path becomes the
// capture round.
func writeCheckpointFile(path string, cp *sim.Checkpoint) error {
	if strings.Contains(path, "%d") {
		path = fmt.Sprintf(path, cp.Round)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := cp.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runResume restarts a checkpointed native protocol from its capture round;
// the checkpoint dictates seed, fault plan, and round budget, so only the
// graph flags and -workers need to match the original invocation.
func runResume(algo string, g graph.Topology, path string, opts []sim.Option) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cp, err := sim.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	prog, err := replay.Program(algo)
	if err != nil {
		return nil, err
	}
	res, err := sim.Resume(g, prog, cp, opts...)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.set("resumed_from", cp.Round)
	switch algo {
	case "census":
		n := res.Results[0].(int64)
		rep.addf("native step census (resumed from round %d): n=%d", cp.Round, n)
		rep.set("n", n)
	case "estimate":
		est := res.Results[0].(int64)
		rep.addf("randomized size estimate (resumed from round %d): 2^k=%d (true n=%d)", cp.Round, est, g.N())
		rep.set("estimate", est)
	}
	rep.metrics = &res.Metrics
	return rep, nil
}

// runAlgo executes one algorithm and reports its outcome — the testable
// core of the command. simOpts carries the transcript/checkpoint options of
// the native step protocols; every other algorithm ignores it (the flag
// layer rejects the combination before it gets here).
func runAlgo(algo string, g graph.Topology, seed int64, variant, stage string, simOpts ...sim.Option) (*report, error) {
	rep := &report{}
	switch algo {
	case "partition-det":
		f, met, info, err := partition.Deterministic(g, seed)
		if err != nil {
			return nil, err
		}
		st := f.Stats()
		rep.addf("deterministic partition: trees=%d minSize=%d maxRadius=%d phases=%d",
			st.Trees, st.MinSize, st.MaxRadius, info.Phases)
		rep.set("trees", st.Trees)
		rep.set("min_size", st.MinSize)
		rep.set("max_radius", st.MaxRadius)
		rep.set("phases", info.Phases)
		rep.metrics = met
	case "partition-rand":
		f, met, info, err := partition.Randomized(g, seed)
		if err != nil {
			return nil, err
		}
		st := f.Stats()
		rep.addf("randomized partition: trees=%d maxRadius=%d (bound %d) iterations=%d",
			st.Trees, st.MaxRadius, 4*partition.SqrtN(g.N()), info.Iterations)
		rep.set("trees", st.Trees)
		rep.set("max_radius", st.MaxRadius)
		rep.set("iterations", info.Iterations)
		rep.metrics = met
	case "partition-lv":
		f, met, info, err := partition.RandomizedLasVegas(g, seed)
		if err != nil {
			return nil, err
		}
		st := f.Stats()
		rep.addf("las vegas partition: trees=%d (bound %d) restarts=%d",
			st.Trees, 2*partition.SqrtN(g.N()), info.Restarts)
		rep.set("trees", st.Trees)
		rep.set("restarts", info.Restarts)
		rep.metrics = met
	case "mst":
		res, err := mst.Multimedia(g, seed)
		if err != nil {
			return nil, err
		}
		want, err := graph.Kruskal(g)
		if err != nil {
			return nil, err
		}
		rep.addf("multimedia MST: weight=%d edges=%d fragments=%d phases=%d kruskal-match=%v",
			res.MST.Total, len(res.MST.EdgeIDs), res.InitialFragments, res.Phases, res.MST.Equal(want))
		rep.set("weight", res.MST.Total)
		rep.set("edges", len(res.MST.EdgeIDs))
		rep.set("fragments", res.InitialFragments)
		rep.set("phases", res.Phases)
		rep.set("kruskal_match", res.MST.Equal(want))
		rep.metrics = &res.Total
	case "mst-boruvka":
		res, err := mst.Boruvka(g, seed)
		if err != nil {
			return nil, err
		}
		rep.addf("boruvka baseline MST: weight=%d phases=%d", res.MST.Total, res.Phases)
		rep.set("weight", res.MST.Total)
		rep.set("phases", res.Phases)
		rep.metrics = &res.Total
	case "sum", "min":
		op := globalfunc.Sum
		if algo == "min" {
			op = globalfunc.Min
		}
		v := map[string]globalfunc.Variant{
			"det": globalfunc.VariantDeterministic, "balanced": globalfunc.VariantBalanced,
			"rand": globalfunc.VariantRandomized,
		}[variant]
		s := map[string]globalfunc.Stage{
			"cap": globalfunc.StageCapetanakis, "mb": globalfunc.StageMetcalfeBoggs,
		}[stage]
		if v == 0 || s == 0 {
			return nil, fmt.Errorf("unknown variant %q or stage %q", variant, stage)
		}
		res, err := globalfunc.Multimedia(g, seed, op, inputs, v, s)
		if err != nil {
			return nil, err
		}
		ref := globalfunc.Reference(g, op, inputs)
		rep.addf("multimedia %s = %d (reference %d), trees=%d", op.Name, res.Value, ref, res.Trees)
		rep.set("value", res.Value)
		rep.set("reference", ref)
		rep.set("trees", res.Trees)
		rep.metrics = &res.Total
	case "p2p-sum":
		res, err := globalfunc.PointToPoint(g, seed, globalfunc.Sum, inputs)
		if err != nil {
			return nil, err
		}
		rep.addf("point-to-point sum = %d", res.Value)
		rep.set("value", res.Value)
		rep.metrics = &res.Total
	case "bcast-sum":
		res, err := globalfunc.BroadcastOnly(g, seed, globalfunc.Sum, inputs, globalfunc.StageCapetanakis)
		if err != nil {
			return nil, err
		}
		rep.addf("broadcast-only sum = %d", res.Value)
		rep.set("value", res.Value)
		rep.metrics = &res.Total
	case "count":
		res, err := size.Exact(g, seed, 0)
		if err != nil {
			return nil, err
		}
		rep.addf("deterministic size computation: n=%d phases=%d", res.N, res.Phases)
		rep.set("n", res.N)
		rep.set("phases", res.Phases)
		rep.metrics = &res.Metrics
	case "census":
		// Native step-machine census: exact n on the point-to-point network,
		// built for million-node graphs (always runs on the step engine).
		res, err := size.Census(g, seed, simOpts...)
		if err != nil {
			return nil, err
		}
		rep.addf("native step census: n=%d", res.N)
		rep.set("n", res.N)
		rep.metrics = &res.Metrics
	case "estimate":
		res, err := size.Estimate(g, seed, simOpts...)
		if err != nil {
			return nil, err
		}
		rep.addf("randomized size estimate: 2^k=%d (true n=%d, ratio %.2f)",
			res.Estimate, g.N(), float64(res.Estimate)/float64(g.N()))
		rep.set("estimate", res.Estimate)
		rep.set("ratio", float64(res.Estimate)/float64(g.N()))
		rep.metrics = &res.Metrics
	case "elect":
		leader, met, err := resolve.Elect(g, seed)
		if err != nil {
			return nil, err
		}
		rep.addf("deterministic election: leader=%v (max id)", leader)
		rep.set("leader", leader)
		rep.metrics = &met
	case "snapshot":
		cut, met, err := snapshot.Run(g, seed)
		if err != nil {
			return nil, err
		}
		rep.addf("snapshot cut: %+v at every node", cut)
		rep.set("cut", fmt.Sprintf("%+v", cut))
		rep.metrics = &met
	case "forest":
		f, total, met, err := forest.BFS(g, seed)
		if err != nil {
			return nil, err
		}
		st := f.Stats()
		rep.addf("distributed BFS spanning forest: trees=%d maxRadius=%d counted n=%d", st.Trees, st.MaxRadius, total)
		rep.set("trees", st.Trees)
		rep.set("max_radius", st.MaxRadius)
		rep.set("n_counted", total)
		rep.metrics = &met
	case "coloring":
		f, _, bmet, err := forest.BFS(g, seed)
		if err != nil {
			return nil, err
		}
		colors, cmet, err := coloring.Distributed(f, seed)
		if err != nil {
			return nil, err
		}
		parent := coloring.ParentInts(f)
		if !coloring.IsLegalColoring(parent, colors) {
			return nil, fmt.Errorf("coloring: output is not a legal coloring")
		}
		if !coloring.IsRootedMIS(parent, colors) {
			return nil, fmt.Errorf("coloring: red vertices are not a rooted MIS")
		}
		var byColor [3]int
		for _, c := range colors {
			byColor[c]++
		}
		rep.addf("distributed 3-coloring + rooted MIS: red=%d green=%d blue=%d (legal, MIS verified)",
			byColor[coloring.Red], byColor[coloring.Green], byColor[coloring.Blue])
		rep.set("red", byColor[coloring.Red])
		rep.set("green", byColor[coloring.Green])
		rep.set("blue", byColor[coloring.Blue])
		total := bmet
		total.Add(&cmet)
		rep.metrics = &total
	case "sync-sum":
		results := make([]int64, g.N())
		var mu sync.Mutex
		res, err := async.Sync(g, seed, 1<<30,
			async.SumDemo(func(v graph.NodeID) int64 { return int64(v) + 1 }, results, &mu))
		if err != nil {
			return nil, err
		}
		want := int64(g.N()) * int64(g.N()+1) / 2
		rep.addf("synchronizer-driven sum = %d (reference %d): %d simulated rounds, overhead %.2fx",
			results[0], want, res.Rounds, res.Overhead())
		rep.set("sum", results[0])
		rep.set("sim_rounds", res.Rounds)
		rep.set("alg_msgs", res.AlgMsgs)
		rep.set("ack_msgs", res.AckMsgs)
		rep.metrics = &res.Metrics
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	return rep, nil
}

func inputs(v graph.NodeID) int64 { return (int64(v)*2654435761 + 17) % 10_000 }

func printMetrics(w io.Writer, m *sim.Metrics) {
	fmt.Fprintf(w, "time=%d rounds, messages=%d, slots: idle=%d success=%d collision=%d, communication=%d\n",
		m.Rounds, m.Messages, m.SlotsIdle, m.SlotsSuccess, m.SlotsCollision, m.Communication())
	if m.Crashed+m.DroppedFault+m.Delayed+m.Duplicated+m.SlotsJammed+m.PartitionedDrop+m.Restarted+m.Skewed > 0 {
		fmt.Fprintf(w, "faults: crashed=%d dropped=%d delayed=%d duplicated=%d jammed-slots=%d partitioned=%d restarted=%d skewed=%d\n",
			m.Crashed, m.DroppedFault, m.Delayed, m.Duplicated, m.SlotsJammed, m.PartitionedDrop, m.Restarted, m.Skewed)
	}
}
