package analysis

// atomicmix flags struct fields accessed both through sync/atomic
// pointer-style calls (atomic.LoadInt32(&s.f), atomic.AddInt64(&s.f), ...)
// and by plain loads or stores in the same package: a field that is atomic
// on one path and plain on another has no happens-before edge between the
// two, and the racy interleavings only surface under contention the tests
// may never generate.
//
// The fix is one of: make every access atomic, or migrate the field to the
// typed sync/atomic wrappers (atomic.Int32, atomic.Bool, ...), whose method
// set makes plain access impossible. Fields of the typed wrappers are
// therefore out of scope by design; so are accesses in _test files of the
// field's package (tests may read counters of a quiesced engine).
//
// The analyzer is package-local (matching the framework: no cross-package
// facts): a field must be atomically accessed and plainly accessed within
// the same package to be flagged, which is also the only configuration the
// engine's reviewable invariants allow — exported fields atomically poked
// from another package would be flagged where the atomic call lives.

import (
	"go/ast"
	"go/types"
)

// AtomicMix is the mixed-atomic-access analyzer.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "flags struct fields accessed both via sync/atomic calls and by plain load/store",
	Run:  runAtomicMix,
}

// atomicPointerFuncs: the sync/atomic entry points taking &x.f.
var atomicPointerFuncs = map[string]bool{
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true,
	"LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
	"AndInt32": true, "AndInt64": true, "AndUint32": true, "AndUint64": true, "AndUintptr": true,
	"OrInt32": true, "OrInt64": true, "OrUint32": true, "OrUint64": true, "OrUintptr": true,
}

// fieldAccess is one occurrence of a struct field selection.
type fieldAccess struct {
	pos    ast.Node
	atomic bool
}

func runAtomicMix(pass *Pass) error {
	accesses := make(map[*types.Var][]fieldAccess)

	// Pass 1: record the fields whose addresses feed sync/atomic calls.
	atomicArgs := make(map[ast.Expr]bool) // the &x.f argument expressions
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !atomicPointerFuncs[sel.Sel.Name] {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, a := range call.Args {
				if u, ok := a.(*ast.UnaryExpr); ok {
					if fsel, ok := u.X.(*ast.SelectorExpr); ok {
						if fv := fieldOf(pass, fsel); fv != nil {
							atomicArgs[fsel] = true
							accesses[fv] = append(accesses[fv], fieldAccess{pos: fsel, atomic: true})
						}
					}
				}
			}
			return true
		})
	}
	if len(accesses) == 0 {
		return nil
	}

	// Pass 2: every other selection of those fields is a plain access.
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fsel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[fsel] {
				return true
			}
			fv := fieldOf(pass, fsel)
			if fv == nil {
				return true
			}
			if _, tracked := accesses[fv]; tracked {
				accesses[fv] = append(accesses[fv], fieldAccess{pos: fsel, atomic: false})
			}
			return true
		})
	}

	for fv, list := range accesses { //mmlint:commutative diagnostics are position-sorted by the driver
		hasPlain := false
		for _, a := range list {
			if !a.atomic {
				hasPlain = true
				break
			}
		}
		if !hasPlain {
			continue
		}
		owner := fieldOwner(fv)
		for _, a := range list {
			if !a.atomic {
				pass.Reportf(a.pos.Pos(), "plain access to field %s (package %s), which is also accessed via sync/atomic: every access must be atomic, or the field migrated to the typed sync/atomic wrappers", fv.Name(), owner)
			}
		}
	}
	return nil
}

// fieldOf resolves a selector to the struct field it selects, or nil.
func fieldOf(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// fieldOwner names the struct type declaring the field, best-effort.
func fieldOwner(fv *types.Var) string {
	if fv.Pkg() != nil {
		return fv.Pkg().Name()
	}
	return "?"
}
