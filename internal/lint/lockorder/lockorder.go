// Package lockorder proves the flat lock hierarchy of the concurrent
// packages statically. The ranked locks live in internal/dist;
// internal/heap/sharded holds none but stays in scope, so any lock
// added there must join the hierarchy. Every sync.Mutex/RWMutex
// struct field in scope must declare its place in the hierarchy with
// a //compactlint:lockrank <n> directive, and every execution path
// must acquire ranked locks in strictly increasing rank order — the
// classical discipline that makes deadlock impossible in a
// flat hierarchy. On top of the same lockset dataflow the analyzer
// also flags re-acquiring a lock already held (self-deadlock with
// sync.Mutex) and returning while a lock is held with no deferred
// unlock registered (the leak shape that poisons every later caller).
//
// Helper methods that run with the caller's lock held declare it with
// //compactlint:lockheld <field> on the function doc; the named
// receiver lock is then held on entry and owed to the caller, so the
// helper is checked for re-acquire and ordering but not for release.
//
// The analysis is intraprocedural and maybe-held: a lock acquired on
// any path into a node counts as held there. That errs toward false
// positives at merges, which is the right direction for a deadlock
// lint — a //compactlint:allow waiver with a reason documents the
// paths that are genuinely exclusive.
package lockorder

import (
	"go/ast"
	"go/types"
	"sort"

	"compaction/internal/lint/analysis"
	"compaction/internal/lint/cfg"
	"compaction/internal/lint/dataflow"
	"compaction/internal/lint/lintutil"
	"compaction/internal/lint/lockset"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions in sharded/dist must follow declared lockrank order, never double-acquire, and never escape a return undeferred",
	Run:  run,
}

// Scope: the packages whose locks participate in the ranked hierarchy.
var scope = []string{"internal/heap/sharded", "internal/dist"}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatches(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	fields := lockset.Collect(pass.Files, pass.TypesInfo)
	// Every mutex field in scope must carry a rank; an unranked mutex
	// is invisible to the ordering proof. Iterate in position order so
	// repeated runs report identically.
	for _, f := range sortedFields(fields) {
		if !f.HasRank {
			kind := "Mutex"
			if f.RW {
				kind = "RWMutex"
			}
			pass.Reportf(f.Decl.Pos(),
				"sync.%s field %s has no //compactlint:lockrank directive; every lock in this package must declare its hierarchy rank",
				kind, f.Var.Name())
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			init := lockset.InitForFunc(pass.TypesInfo, fields, fn)
			checkBody(pass, fields, fn.Body, init)
			// Function literals are separate goroutine-shaped frames:
			// they start with nothing held (a closure runs after the
			// spawning frame's critical section, not inside it).
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, fields, lit.Body, nil)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkBody runs the lockset dataflow over one function body and
// reports violations during a deterministic replay.
func checkBody(pass *analysis.Pass, fields *lockset.Info, body *ast.BlockStmt, init lockset.Set) {
	g := cfg.New(body)
	p := dataflow.Problem[lockset.Set]{
		Init: init,
		Transfer: func(s lockset.Set, n ast.Node) lockset.Set {
			return lockset.Step(pass.TypesInfo, fields, s, n, nil)
		},
		Join:  lockset.Join,
		Equal: lockset.Equal,
	}
	r := dataflow.Forward(g, p)

	r.ForEachNode(g, func(_ *cfg.Block, n ast.Node, before lockset.Set) {
		after := lockset.Step(pass.TypesInfo, fields, before, n, func(op lockset.Op, held lockset.Set) {
			if prev, ok := held[op.Key]; ok {
				pos := pass.Fset.Position(prev.AcquiredAt)
				pass.Reportf(op.Call.Pos(),
					"re-acquires %s already held since line %d; sync mutexes are not reentrant",
					prev.Expr, pos.Line)
				return
			}
			rank := fields.RankOf(op.Field)
			if rank == lockset.UnknownRank {
				return
			}
			for _, h := range held.Sorted() {
				if h.Rank == lockset.UnknownRank || h.Key == op.Key {
					continue
				}
				if h.Rank >= rank {
					pass.Reportf(op.Call.Pos(),
						"acquires %s (rank %d) while holding %s (rank %d); lock ranks must strictly increase along every path",
						exprOf(op), rank, h.Expr, h.Rank)
				}
			}
		})
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, h := range after.Sorted() {
				if !h.Deferred {
					pass.Reportf(ret.Pos(),
						"returns while %s is held with no deferred unlock on this path",
						h.Expr)
				}
			}
		}
	})

	// Falling off the end of the body is a return too.
	for _, b := range g.Blocks {
		if _, reached := r.In(b); !reached {
			continue
		}
		for _, e := range b.Succs {
			if e.To != g.Exit || e.Kind != cfg.Next {
				continue
			}
			for _, h := range r.Out(b).Sorted() {
				if !h.Deferred {
					pass.Reportf(body.Rbrace,
						"function ends while %s is held with no deferred unlock on this path",
						h.Expr)
				}
			}
		}
	}
}

// exprOf renders the acquisition operand for diagnostics.
func exprOf(op lockset.Op) string {
	return types.ExprString(op.Operand)
}

// sortedFields orders the package's mutex fields by declaration
// position.
func sortedFields(info *lockset.Info) []*lockset.Field {
	out := make([]*lockset.Field, 0, len(info.Fields))
	for _, f := range info.Fields {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}
