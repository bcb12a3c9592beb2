package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// TokenPair checks that every workpool token acquired is released on
// every path of the acquiring function.
//
// Contract (DESIGN.md): the shared token budget bounds machine-wide
// active work; one leaked token permanently shrinks the budget for
// every in-flight run, and a leaked-on-error token is precisely how a
// cancelled sweep would deadlock its siblings. The analyzer accepts a
// `defer tok.Release()` anywhere in the function, or a Release on every
// CFG path from the acquire to the function's exit or, in a loop, back
// round to the acquire. The error return of AcquireCtx holds no token:
// when the acquire's block ends in the branch on `err != nil` (or
// `err == nil`), the paths start at the no-error successor, so the
// canonical
//
//	if err := tok.AcquireCtx(ctx); err != nil { return err }
//
// form holds nothing on its error branch.
//
// The path analysis runs on the shared CFG layer (MustReachFrom): loops
// may run zero times, break and continue are followed to their targets,
// and panics/os.Exit are treated as non-leaking (the process is
// unwinding). False positives carry a //sopslint:ignore tokenpair
// directive with the argument for why the pairing holds.
var TokenPair = &analysis.Analyzer{
	Name: "tokenpair",
	Doc:  "flag workpool.Tokens.Acquire/AcquireCtx calls without a Release on some path (defer-or-all-paths)",
	Run:  runTokenPair,
}

func runTokenPair(pass *analysis.Pass) error {
	cfgs := cfgsFor(pass)
	for _, f := range pass.SourceFiles() {
		for _, u := range analysis.Units(f) {
			cfg := cfgs.For(u.Body())
			for _, blk := range cfg.Blocks {
				for i, n := range blk.Nodes {
					analysis.InspectNode(n, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							checkAcquire(pass, cfg, blk, i, call)
						}
						return true
					})
				}
			}
		}
	}
	return nil
}

// checkAcquire reports call, found in node i of blk, if it is a
// Tokens.Acquire/AcquireCtx whose token some path fails to release.
func checkAcquire(pass *analysis.Pass, cfg *analysis.CFG, blk *analysis.Block, i int, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Acquire" && sel.Sel.Name != "AcquireCtx") || !isTokensType(pass.TypeOf(sel.X)) {
		return
	}
	recv := types.ExprString(sel.X)
	start, at := blk, i
	if sel.Sel.Name == "AcquireCtx" {
		start, at = heldFrom(pass, blk, i, call)
	}
	if !cfg.MustReachFrom(start, at, func(n ast.Node) bool { return releases(n, recv) }) {
		pass.Reportf(call.Pos(), "Tokens.%s is not released on every path; defer %s.Release() or release on all paths (a leaked token shrinks the shared budget for every in-flight run)", sel.Sel.Name, recv)
	}
}

// heldFrom returns where the token of an AcquireCtx call in node i of
// blk starts being held. When blk ends in the two-way branch on the
// call's error — `err != nil` over the err the node assigns and no later
// node reassigns, or the call itself compared with nil — that is the top
// of the no-error successor; otherwise it is just after the node.
func heldFrom(pass *analysis.Pass, blk *analysis.Block, i int, call *ast.CallExpr) (*analysis.Block, int) {
	last := len(blk.Nodes) - 1
	cond, ok := blk.Nodes[last].(*ast.BinaryExpr)
	if !ok || len(blk.Succs) != 2 || (cond.Op != token.NEQ && cond.Op != token.EQL) {
		return blk, i
	}
	tested := cond.X
	if isNilIdent(pass, cond.X) {
		tested = cond.Y
	} else if !isNilIdent(pass, cond.Y) {
		return blk, i
	}
	if ast.Unparen(tested) != call {
		as, ok := blk.Nodes[i].(*ast.AssignStmt)
		id, isID := ast.Unparen(tested).(*ast.Ident)
		if !ok || !isID || len(as.Lhs) != 1 || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call {
			return blk, i
		}
		errObj := pass.ObjectOf(id)
		if !mentionsObject(pass, as.Lhs[0], errObj) {
			return blk, i
		}
		for _, n := range blk.Nodes[i+1 : last] {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if mentionsObject(pass, lhs, errObj) {
						return blk, i
					}
				}
			}
		}
	}
	// The then-branch is Succs[0]: the error branch of `err != nil`.
	if cond.Op == token.NEQ {
		return blk.Succs[1], -1
	}
	return blk.Succs[0], -1
}

// isTokensType recognizes workpool.Tokens (possibly behind a pointer).
func isTokensType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tokens" && pkgPathIs(obj.Pkg(), "workpool")
}

// releases reports whether the node releases the token of recv: a
// <recv>.Release() call, or a deferred or spawned literal that makes one
// (a defer runs on every exit; a goroutine takes the token over).
func releases(n ast.Node, recv string) bool {
	var call *ast.CallExpr
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Release" && types.ExprString(sel.X) == recv
	case *ast.DeferStmt:
		call = n.Call
	case *ast.GoStmt:
		call = n.Call
	default:
		return false
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if e, ok := m.(*ast.ExprStmt); ok && releases(ast.Unparen(e.X), recv) {
			found = true
		}
		return !found
	})
	return found
}
