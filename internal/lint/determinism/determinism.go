// Package determinism implements the compactlint analyzer guarding
// the property everything else in this repository leans on: the same
// seed and configuration must reproduce the same run, byte for byte —
// checkpoint resume (internal/resume) literally cmp's the output of a
// resumed sweep against an uninterrupted one. In the deterministic
// core (internal/adversary, mm, heap, bounds, word, the engine in
// internal/sim, the programs in internal/core, workload, profile,
// catalog and faultinject, and the coordinator in internal/dist) the
// analyzer forbids:
//
//   - time.Now / time.Since — wall-clock values in results;
//   - the global math/rand functions — unseeded process-wide state
//     (constructors like rand.New/NewSource and methods on a seeded
//     *rand.Rand are fine);
//   - map iteration whose order can leak into output: a range over a
//     map that appends to an outer slice (unless the slice is sorted
//     afterwards in the same block), returns a value from inside the
//     loop, or sends on a channel. Order-insensitive map loops —
//     counting, summing, rebuilding another map — are not flagged.
//
// The engine's tracing path legitimately timestamps rounds; that one
// site carries //compactlint:allow determinism, the escape hatch for
// reviewed exceptions.
package determinism

import (
	"go/ast"
	"go/types"

	"compaction/internal/lint/analysis"
	"compaction/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "the deterministic core must not read wall clocks, global " +
		"rand state, or leak map iteration order into output",
	Run: run,
}

var scope = []string{
	"internal/adversary", "internal/mm", "internal/heap",
	"internal/bounds", "internal/word", "internal/sim",
	// The programs: P_F (internal/core), the workloads, the profile
	// generators, the name → program catalog and the fault-injection
	// wrappers all decide what a seeded run allocates and frees.
	"internal/core", "internal/workload", "internal/profile",
	"internal/catalog", "internal/faultinject",
	// The distributed coordinator decides results that must merge
	// byte-identically with a single-process run, so it is held to the
	// same rule; its one legitimate wall-clock read (lease expiry
	// measures real worker silence) carries an explicit waiver.
	"internal/dist",
}

// seededConstructors are the math/rand package functions that build
// explicitly-seeded generators rather than using global state.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatches(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, f)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in the deterministic core", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global rand.%s is unseeded process state; use a seeded *rand.Rand", fn.Name())
		}
	}
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, file *ast.File) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's body runs elsewhere
		case *ast.ReturnStmt:
			if len(n.Results) > 0 && !allNil(n.Results) {
				pass.Reportf(n.Pos(),
					"return inside map iteration yields an order-dependent result; collect and sort instead")
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration leaks nondeterministic order")
		case *ast.AssignStmt:
			checkAppend(pass, n, rng, file)
		}
		return true
	})
}

func allNil(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name != "nil" {
			return false
		}
	}
	return true
}

// checkAppend flags `v = append(v, ...)` inside a map range when v is
// declared outside the loop and no later statement in the enclosing
// block sorts v — the collect-then-sort idiom is the sanctioned way
// to emit map contents.
func checkAppend(pass *analysis.Pass, n *ast.AssignStmt, rng *ast.RangeStmt, file *ast.File) {
	info := pass.TypesInfo
	for i, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !lintutil.IsBuiltin(info, call, "append") || i >= len(n.Lhs) {
			continue
		}
		id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Uses[id]
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			continue // loop-local accumulation is invisible outside
		}
		if sortedAfter(info, obj, rng, file) {
			continue
		}
		pass.Reportf(n.Pos(),
			"append to %s inside map iteration leaks nondeterministic order; sort %s afterwards or iterate sorted keys",
			id.Name, id.Name)
	}
}

// sortedAfter reports whether, somewhere after the range loop in the
// same file, a sorting call (sort.* or slices.Sort*) mentions obj.
// Scanning the rest of the file rather than the strict enclosing
// block keeps the check simple while still catching the
// collect-then-sort idiom wherever the sort lands.
func sortedAfter(info *types.Info, obj types.Object, rng *ast.RangeStmt, file *ast.File) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found || n == nil || n.End() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
