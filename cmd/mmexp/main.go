// Command mmexp regenerates the experiment tables: one table per paper
// claim (-list prints the index).
//
// Usage:
//
//	mmexp                      # quick sweep (seconds)
//	mmexp -full                # full sweep (minutes)
//	mmexp -only E3             # a single experiment
//	mmexp -only E9             # census scaling table (10⁷ nodes, ~1.5 GB live heap, with -full)
//	mmexp -only E10            # chaos: degradation under crash/jam fault plans
//	mmexp -faults jam:1-/p0.2  # every experiment under a 20% channel-jamming plan (E6, E10 and E13 install their own)
//	mmexp -list                # list the registry
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmexp:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mmexp", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		full      = fs.Bool("full", false, "run the full parameter sweep (slow)")
		only      = fs.String("only", "", "run a single experiment by id (e.g. E3)")
		list      = fs.Bool("list", false, "list experiments and exit")
		workers   = fs.Int("workers", 0, "step-engine worker count (0 = GOMAXPROCS)")
		faults    = fs.String("faults", "", "fault plan DSL applied to every experiment (E6, E10 and E13 install their own plans); seed 1 unless it pins seed:N")
		maxRounds = fs.Int("max-rounds", 0, "round budget per run (0 = graph-derived default); bound wedged faulted runs")

		tracePath   = fs.String("trace", "", "write engine phase spans across every run as Chrome trace_event JSON to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and pprof /debug/pprof on this address while the sweep runs")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *workers < 0 || *maxRounds < 0 {
		return fmt.Errorf("-workers %d, -max-rounds %d: want 0 (the default) or more", *workers, *maxRounds)
	}

	plan, err := fault.FromFlag(*faults)
	if err != nil {
		return err
	}
	// With -trace or -metrics-addr, an Obs observes every run of the sweep
	// through the process-default recorder (observation never changes the
	// tables — see the sim.Recorder contract).
	var o *obs.Obs
	if *tracePath != "" || *metricsAddr != "" {
		o = obs.New(obs.Options{Trace: *tracePath != "", PprofLabels: true})
		if *metricsAddr != "" {
			srv, err := obs.Serve(*metricsAddr, o.Registry())
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "mmexp: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
		}
	}
	var rec sim.Recorder
	if o != nil {
		rec = o
	}

	oldW, oldF, oldM, oldR := sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder
	sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder = *workers, plan, *maxRounds, rec
	defer func() {
		sim.DefaultWorkers, sim.DefaultFaults, sim.DefaultMaxRounds, sim.DefaultRecorder = oldW, oldF, oldM, oldR
	}()

	experiments := exp.All()
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(w, "%-3s %-38s %s\n", e.ID, e.Name, e.Claim)
		}
		return nil
	}
	ran := 0
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		fmt.Fprintf(w, "== %s: %s\n   claim: %s\n", e.ID, e.Name, e.Claim)
		if err := e.Run(w, *full); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q", *only)
	}
	if o != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := o.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
