package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkStageLedger enforces the exit-transaction pipeline's control-flow
// contract on every path, not just executed ones:
//
//   - a function that opens a transaction (calls Begin) opens it exactly
//     once, routes every return through Settle, and never calls Settle
//     outside a return statement — so no early return can skip the settle
//     point and no path can settle twice;
//   - a function that calls Settle without having called Begin is bypassing
//     the boundary that owns the transaction;
//   - every ledger charge (the Charge method) names its stage with a
//     constant, and one function charges only a single stage — per-stage
//     latency attribution stays statically decidable, and an assignment to
//     the transaction's Stage field must agree with the stage charged.
func checkStageLedger(prog *program, cfg *Config, g *callGraph) ([]Finding, error) {
	sl := cfg.StageLedger
	beginFn, err := resolveSingle(g, sl.Begin)
	if err != nil {
		return nil, err
	}
	settleFn, err := resolveSingle(g, sl.Settle)
	if err != nil {
		return nil, err
	}
	chargeFn, err := resolveSingle(g, sl.Charge)
	if err != nil {
		return nil, err
	}
	txNamed := receiverNamed(chargeFn)

	var out []Finding
	for _, pkg := range prog.pkgs {
		for _, file := range pkg.Files {
			dirs := pkg.Directives[file]
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := funcOf(pkg, fd)
				if fn == beginFn || fn == settleFn || fn == chargeFn {
					continue
				}
				out = append(out, checkBoundary(prog, pkg, dirs, fd, beginFn, settleFn)...)
				out = append(out, checkCharges(prog, pkg, dirs, fd, chargeFn, txNamed)...)
			}
		}
	}
	return out, nil
}

// resolveSingle resolves a spec that must name exactly one concrete function.
func resolveSingle(g *callGraph, spec string) (*types.Func, error) {
	fns, err := g.resolveRoot(spec)
	if err != nil {
		return nil, err
	}
	if len(fns) != 1 {
		return nil, fmt.Errorf("lint: spec %q resolves to %d functions, want exactly 1", spec, len(fns))
	}
	return fns[0], nil
}

// receiverNamed returns the named type of a method's receiver, nil for plain
// functions.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOrElem(sig.Recv().Type())
}

// checkBoundary applies the begin/settle pairing rules to one function.
func checkBoundary(prog *program, pkg *Package, dirs *fileDirectives, fd *ast.FuncDecl, beginFn, settleFn *types.Func) []Finding {
	var begins, settles []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeOf(pkg, call) {
		case beginFn:
			begins = append(begins, call)
		case settleFn:
			settles = append(settles, call)
		}
		return true
	})
	if len(begins) == 0 && len(settles) == 0 {
		return nil
	}
	name := funcID(funcOf(pkg, fd))

	var out []Finding
	if len(begins) == 0 {
		for _, call := range settles {
			out = append(out, finding(prog, pkg, dirs, call.Pos(), RuleStageLedger,
				fmt.Sprintf("%s settles a transaction it never opened: settle belongs to the boundary that called begin", name)))
		}
		return out
	}
	for _, call := range begins[1:] {
		out = append(out, finding(prog, pkg, dirs, call.Pos(), RuleStageLedger,
			fmt.Sprintf("%s opens a transaction more than once; one boundary entry is one begin", name)))
	}

	// Every settle must be the returned expression: settling and then
	// continuing (or settling twice) would hand out the boundary cost twice.
	inReturn := map[*ast.CallExpr]bool{}
	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		returns = append(returns, ret)
		ast.Inspect(ret, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && calleeOf(pkg, call) == settleFn {
				inReturn[call] = true
			}
			return true
		})
		return true
	})
	for _, call := range settles {
		if !inReturn[call] {
			out = append(out, finding(prog, pkg, dirs, call.Pos(), RuleStageLedger,
				fmt.Sprintf("%s calls settle outside a return statement; settle must be the single exit point of the boundary", name)))
		}
	}
	if len(returns) == 0 {
		out = append(out, finding(prog, pkg, dirs, begins[0].Pos(), RuleStageLedger,
			fmt.Sprintf("%s opens a transaction but has no return routing it through settle", name)))
	}
	for _, ret := range returns {
		settled := false
		ast.Inspect(ret, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && calleeOf(pkg, call) == settleFn {
				settled = true
			}
			return !settled
		})
		if !settled {
			out = append(out, finding(prog, pkg, dirs, ret.Pos(), RuleStageLedger,
				fmt.Sprintf("early return in %s skips the settle point; every path out of a boundary must go through settle", name)))
		}
	}
	return out
}

// checkCharges applies the constant-stage and single-stage-per-function rules
// to one function.
func checkCharges(prog *program, pkg *Package, dirs *fileDirectives, fd *ast.FuncDecl, chargeFn *types.Func, txNamed *types.Named) []Finding {
	var out []Finding
	name := funcID(funcOf(pkg, fd))
	charged := ""     // exact value of the stage constant this function charges
	chargedName := "" // its display name for messages
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if calleeOf(pkg, n) != chargeFn || len(n.Args) == 0 {
				return true
			}
			tv, ok := pkg.Info.Types[n.Args[0]]
			if !ok || tv.Value == nil {
				out = append(out, finding(prog, pkg, dirs, n.Args[0].Pos(), RuleStageLedger,
					fmt.Sprintf("%s charges the ledger through a non-constant stage; attribution must be statically decidable", name)))
				return true
			}
			v := tv.Value.ExactString()
			if charged == "" {
				charged, chargedName = v, stageConstName(n.Args[0])
			} else if charged != v {
				out = append(out, finding(prog, pkg, dirs, n.Args[0].Pos(), RuleStageLedger,
					fmt.Sprintf("%s charges a second stage (%s after %s); one function attributes cost to exactly one stage", name, stageConstName(n.Args[0]), chargedName)))
			}
		case *ast.AssignStmt:
			if txNamed == nil || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			sel, ok := n.Lhs[0].(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Stage" {
				return true
			}
			s, ok := pkg.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal || namedOrElem(s.Recv()) != txNamed {
				return true
			}
			tv, ok := pkg.Info.Types[n.Rhs[0]]
			if !ok || tv.Value == nil {
				return true
			}
			v := tv.Value.ExactString()
			if charged == "" {
				charged, chargedName = v, stageConstName(n.Rhs[0])
			} else if charged != v {
				out = append(out, finding(prog, pkg, dirs, n.Rhs[0].Pos(), RuleStageLedger,
					fmt.Sprintf("%s sets the transaction stage to a value it does not charge under; stage field and ledger must agree", name)))
			}
		}
		return true
	})
	return out
}

// stageConstName renders the stage argument for messages (the identifier when
// there is one).
func stageConstName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "a different stage"
}

// calleeOf resolves a call to its single static callee (method or function),
// nil for interface calls and builtins.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
