package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// MemCharge enforces the PR 5 memory-governance contract in the query
// executor: tuple storage — the memory that grows with the join
// frontier, not with any constant — is only allocated by code that
// charges the per-query mem.Budget, either directly
// (Reserve/MustReserve) or through a budget-carrying arena. An
// unbudgeted allocation of tuple storage is invisible to the admission
// governor and to Options{MemoryLimit}: exactly the class of bug the
// budget layer was built to make impossible.
//
// The check: in the executor files of a package whose path ends in
// "query" (memChargeFiles: the per-step tuple executor, the batch
// pipeline, the streaming projection and the spill machinery),
// any `make` whose result type stores tuples (slices of kb.Value,
// slices/maps of such slices) must sit in a function that also touches
// the budget: calls (*mem.Budget).Reserve/MustReserve, or allocates
// through the tupleArena (whose blocks are charged on rotation). The
// check is per-function, not per-path: a function that allocates hot
// storage must at least participate in accounting.
var MemCharge = &Analyzer{
	Name: "memcharge",
	Doc: "executor/pipeline/spill allocations of tuple storage must be reachable from a " +
		"mem.Budget charge or a budget-carrying arena (PR 5 memory-governance contract)",
	Run: runMemCharge,
}

// memChargeFiles are the tuple-execution files the contract covers —
// the per-step tuple path, the columnar batch path (whose column
// vectors are tuple storage turned sideways), the streaming projection
// both paths share (whose cell arena holds the answer rows) and the
// spill machinery under them.
var memChargeFiles = map[string]bool{
	"exec.go":       true,
	"spill.go":      true,
	"batch.go":      true,
	"batchpipe.go":  true,
	"projection.go": true,
	"projspill.go":  true,
}

func runMemCharge(pass *Pass) error {
	pkg := pass.Pkg
	if !pkgElemIs(pkg, "query") {
		return nil
	}
	for _, file := range pkg.Files {
		name := filepath.Base(pass.Prog.Fset.Position(file.Pos()).Filename)
		if !memChargeFiles[name] {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var hotAllocs []*ast.CallExpr
			charges := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isBuiltin(pkg.Info, call, "make") && tupleStorage(pkg.Info.Types[call].Type) {
					hotAllocs = append(hotAllocs, call)
				}
				if isBudgetCharge(pkg.Info, call) || isArenaUse(pkg.Info, call) ||
					isProjCharge(pkg.Info, call) {
					charges = true
				}
				return true
			})
			if charges {
				continue
			}
			for _, call := range hotAllocs {
				pass.Reportf(call.Pos(),
					"%s allocates tuple storage (%s) but never charges the query memory budget; "+
						"reserve it (mem.Budget.Reserve/MustReserve) or allocate through a budget-carrying arena (PR 5 contract)",
					fd.Name.Name, types.TypeString(pkg.Info.Types[call].Type, types.RelativeTo(pkg.Types)))
			}
		}
	}
	return nil
}

// tupleStorage reports whether t holds tuples: a slice/array whose
// elements are kb.Value or themselves tuple storage, or a map whose
// values are tuple storage (build tables). Structs and pointers are not
// traversed — a struct owns its accounting.
func tupleStorage(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return typeIs(u.Elem(), "kb", "Value") || tupleStorage(u.Elem())
	case *types.Array:
		return typeIs(u.Elem(), "kb", "Value") || tupleStorage(u.Elem())
	case *types.Map:
		return tupleStorage(u.Elem())
	}
	return false
}

// isBudgetCharge matches Reserve/MustReserve calls on *mem.Budget.
func isBudgetCharge(info *types.Info, call *ast.CallExpr) bool {
	f := calleeOf(info, call)
	if f == nil || (f.Name() != "Reserve" && f.Name() != "MustReserve") {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), "mem", "Budget")
}

// isProjCharge matches the streaming projection's charge helper: a
// stageProj.ensure call reserves the row's retention (or rotates the
// dedup set to a spill run), so a function that allocates a projected
// row through it participates in accounting.
func isProjCharge(info *types.Info, call *ast.CallExpr) bool {
	f := calleeOf(info, call)
	if f == nil || f.Name() != "ensure" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), "query", "stageProj")
}

// isArenaUse matches tuple allocation routed through the budget-carrying
// arena: newArena itself or any tupleArena method.
func isArenaUse(info *types.Info, call *ast.CallExpr) bool {
	f := calleeOf(info, call)
	if f == nil {
		return false
	}
	if f.Name() == "newArena" {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), "query", "tupleArena")
}
