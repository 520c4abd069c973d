// Command mmlint runs the repo's determinism/zero-alloc analyzer suite
// (internal/analysis: maporder, detsource, noalloc, ctxescape, atomicmix)
// over Go package patterns — the build-time half of the contracts the
// difftest/golden/alloc gates assert at runtime.
//
// Usage (the `make lint` path):
//
//	mmlint ./...             # lint the whole module, exit 1 on findings
//	mmlint -dir /repo ./...  # lint another module
//	mmlint -json ./...       # machine-readable findings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module directory to resolve patterns in")
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mmlint [-dir DIR] [-json] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.LoadPatterns(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mmlint: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "mmlint: %v\n", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "mmlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
