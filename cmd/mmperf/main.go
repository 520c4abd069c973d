// Command mmperf is the repository's end-to-end benchmark: four workloads
// driven through the protocols' public entry points on the step engine at 2
// workers, every result verified, every metric printed by name with its
// unit. Each workload runs in a fresh child process (untraced: set-up,
// warm-up, timed ops, memory pass), then in a second, traced child whose
// spans give the per-layer breakdown. See README.md for the workloads and
// metrics; BENCHMARK.json at the repository root names the gated ones.
//
// Usage:
//
//	mmperf [-workload NAME] [-seed S] [-seconds T] [-trace 0|1] [-out FILE] [-trace-out FILE]
//	mmperf -compare base.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -out file: the host shape and every workload's result.
type report struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Workers    int       `json:"workers"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	CPU        string    `json:"cpu"`
	GoVersion  string    `json:"go_version"`
	GOGC       string    `json:"gogc,omitempty"`
	GOMEMLIMIT string    `json:"gomemlimit,omitempty"`
	Workloads  []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "seed of the topology, the protocols, and the fault plan")
		seconds  = fs.Float64("seconds", 20, "length of each workload's timed phase, in seconds (BENCHMARK.json's run_seconds)")
		traced   = fs.Int("trace", 1, "1: also run each workload's traced child (per-layer metrics); 0: end-to-end metrics only")
		out      = fs.String("out", "", "write the report as JSON to this file")
		traceOut = fs.String("trace-out", "", "write the traced ops' spans as Chrome trace_event JSON to this file")
		compare  = fs.Bool("compare", false, "compare two reports given as arguments: base.json new.json")
		child    = fs.String("child", "", "internal: measure one workload in this process (untraced|traced) and print the result as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mmperf:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare wants two reports: base.json new.json"))
		}
		spec, err := loadBenchSpec()
		if err != nil {
			return fail(err)
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), spec.EndToEnd)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	cfg := config{seed: *seed, seconds: *seconds, ops: minTimedOps}
	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *only))
		}
		selected = []workload{w}
	}
	if *child != "" {
		return runChild(stdout, *child, selected[0], cfg)
	}
	// The summary line needs the gated metric names, so find them before
	// spending minutes measuring.
	var spec *benchSpec
	if *only != "" {
		var err error
		if spec, err = loadBenchSpec(); err != nil {
			return fail(err)
		}
	}

	rep := &report{
		Seed: cfg.seed, Seconds: cfg.seconds, Workers: workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), GOGC: os.Getenv("GOGC"), GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
	}
	fmt.Fprintf(stdout, "mmperf: seed %d, %gs timed per workload, %d workers, GOMAXPROCS %d, nproc %d, %s, %s\n",
		rep.Seed, rep.Seconds, rep.Workers, rep.GOMAXPROCS, rep.NProc, rep.CPU, rep.GoVersion)
	for _, w := range selected {
		r, err := spawn("untraced", w, cfg)
		if err != nil {
			return fail(err)
		}
		if *traced == 1 {
			tr, err := spawn("traced", w, cfg)
			if err != nil {
				return fail(err)
			}
			r = merge(r, tr)
		}
		printResult(stdout, r)
		rep.Workloads = append(rep.Workloads, r)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f io.Writer) error { return writeChromeTrace(f, rep.Workloads) }); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		for _, r := range rep.Workloads {
			r.Spans = nil
		}
		if err := writeFile(*out, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return fail(err)
		}
	}
	failed := 0
	for _, r := range rep.Workloads {
		failed += r.Failed
	}
	if spec != nil {
		gated := spec.EndToEnd
		if *traced == 1 {
			gated = spec.PerLayer
		}
		line, err := summaryLine(rep.Workloads[0], gated)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d op(s) failed", failed))
	}
	return 0
}

// minTimedOps is the fewest timed ops a workload runs, however short
// -seconds is.
const minTimedOps = 5

// runChild measures one workload in this process and prints the result.
func runChild(stdout io.Writer, mode string, w workload, cfg config) int {
	var r *result
	var err error
	switch mode {
	case "untraced":
		r, err = measureUntraced(w, cfg)
	case "traced":
		r, err = measureTraced(w, cfg)
	default:
		err = fmt.Errorf("-child %q: want untraced or traced", mode)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmperf child:", err)
		return 1
	}
	return 0
}

// spawn measures one workload in a fresh child process, so no workload
// inherits another's heap, and the child's peak RSS is its own.
func spawn(mode string, w workload, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// A child must not outlive a parent that was killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child for %s: %w", mode, w.name, err)
	}
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child for %s: %w", mode, w.name, err)
	}
	return &r, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printResult prints every metric of one workload, end-to-end ones first.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s: %d timed ops, %d ops attempted, %d failed\n", r.Workload, r.Ops, r.Attempted, r.Failed)
	first := []string{"setup_s", "run_s_p10", "run_s_p50", "cpu_s_p10", "cpu_s_p50", "peak_live_mib", "error_rate"}
	names := slices.Sorted(func(yield func(string) bool) {
		for name := range r.Metrics {
			if !slices.Contains(first, name) && !yield(name) {
				return
			}
		}
	})
	for _, name := range append(first, names...) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-8s", name, m.Value, m.Unit)
		if m.Quartiles != nil {
			fmt.Fprintf(w, " n %d  quartiles %.6g %.6g %.6g  spread %.1f%%",
				m.N, m.Quartiles[0], m.Quartiles[1], m.Quartiles[2], 100*m.Spread)
		}
		fmt.Fprintln(w)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
}

// benchSpec is the part of BENCHMARK.json this command reads.
type benchSpec struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchSpec reads BENCHMARK.json from the working directory or the
// nearest directory above it.
func loadBenchSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// summaryLine is the one-line JSON result: whether every op verified, how
// many ran and failed, and the given metrics.
func summaryLine(r *result, gated []benchMetric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, g := range gated {
		m, ok := r.Metrics[g.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, g.Name)
		}
		if m.Unit != g.Unit {
			return nil, fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", r.Workload, g.Name, m.Unit, g.Unit)
		}
		metrics[g.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// cpuModel names the host CPU for the report.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}
