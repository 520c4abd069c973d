package analysis

// detsource bans sources of run-to-run nondeterminism inside the
// transcript-affecting packages: the engine, the fault injector, and the
// protocol implementations. Everything those packages compute must be a
// pure function of (topology, seed, plan) — that is the invariant the whole
// difftest/golden apparatus asserts — so wall-clock reads, the global
// math/rand generator (shared, lock-protected, seeded from runtime
// entropy), and branching on processor count or environment variables are
// all rejected at build time.
//
// Seeded generators stay legal: rand.New(rand.NewSource(seed)) constructs
// the per-node and per-rule RNGs every engine derives from the master seed,
// so only the package-level convenience functions of math/rand (and the
// always-global math/rand/v2 top-level functions) are flagged.
//
// A deliberate, transcript-invariant use — the step engine sizing its
// default worker pool from GOMAXPROCS, or the gate sizing a spin budget —
// is suppressed with //mmlint:nondet <reason>; the reason is mandatory.

import (
	"go/ast"
)

// DetSource is the nondeterminism-source analyzer.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "bans time.Now/Since, global math/rand, and GOMAXPROCS/env branching in transcript-affecting packages unless annotated //mmlint:nondet <reason>",
	Run:  runDetSource,
}

// detScope is the set of package-path roots detsource enforces. Engine,
// fault, and every protocol package are transcript-affecting; cmd/,
// examples/, and internal/exp only time and report, and test files are
// excluded wholesale (timeouts and bench clocks are fine).
//
// repro/internal/obs is deliberately ABSENT: it is the observability layer
// behind the sim.Recorder seam and is wall-clock-timed by nature (span
// timestamps, phase histograms). The recorder contract — observation never
// alters transcripts, enforced by the root obs_equiv_test.go — is what
// keeps its nondeterminism out of transcripts, not this analyzer; its
// time.Now call sites carry //mmlint:nondet annotations as documentation.
// The engine itself stays in scope and never reads the clock: all
// timing lives behind the Recorder interface.
var detScope = []string{
	"repro/internal/sim",
	"repro/internal/fault",
	"repro/internal/graph",
	"repro/internal/mst",
	"repro/internal/forest",
	"repro/internal/coloring",
	"repro/internal/snapshot",
	"repro/internal/resolve",
	"repro/internal/globalfunc",
	"repro/internal/partition",
	"repro/internal/size",
	"repro/internal/async",
	"repro/internal/difftest",
	// Fixture scopes (analyzer tests and cmd/mmlint's end-to-end fixture).
	"detsource",
	"repro/cmd/mmlint/testdata/src/knownbad",
}

// mathRandConstructors are the math/rand functions that build explicitly
// seeded generators — the sanctioned pattern.
var mathRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDetSource(pass *Pass) error {
	if !pkgPathIn(pass.Pkg.Path(), detScope) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var msg string
			switch {
			case isPkgFunc(pass.TypesInfo, sel, "time", "Now", "Since", "Until"):
				msg = "wall-clock time in a transcript-affecting package; transcripts must be a function of (topology, seed, plan) only"
			case isPkgFunc(pass.TypesInfo, sel, "math/rand") && !mathRandConstructors[sel.Sel.Name]:
				msg = "global math/rand is seeded from runtime entropy and shared across goroutines; derive a *rand.Rand from an explicit seed instead"
			case isPkgFunc(pass.TypesInfo, sel, "math/rand/v2") && !mathRandConstructors[sel.Sel.Name]:
				msg = "math/rand/v2 top-level functions are globally seeded; derive a generator from an explicit seed instead"
			case isPkgFunc(pass.TypesInfo, sel, "runtime", "GOMAXPROCS", "NumCPU"):
				msg = "processor-count branching makes behavior machine-dependent"
			case isPkgFunc(pass.TypesInfo, sel, "os", "Getenv", "LookupEnv"):
				msg = "environment branching makes behavior machine-dependent"
			default:
				return true
			}
			if d, ok := pass.directiveAt(sel.Pos(), "nondet"); ok {
				if d.reason == "" {
					pass.Reportf(sel.Pos(), "//mmlint:nondet needs a reason: say why this cannot affect transcripts")
				}
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s: %s (suppress a transcript-invariant use with //mmlint:nondet <reason>)", exprPkgName(sel), sel.Sel.Name, msg)
			return true
		})
	}
	return nil
}

// exprPkgName returns the selector's package qualifier for the message.
func exprPkgName(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// isTestFile reports whether f is a _test.go file.
func isTestFile(pass *Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
