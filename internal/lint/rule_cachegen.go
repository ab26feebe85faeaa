package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkCacheGen is the plan-cache soundness rule. A replayed forward plan is
// only equivalent to recompiling when every input the compile path read is
// covered by a generation counter the cache key checks. The rule makes that
// set explicit: it walks the call graph from the compile roots (through
// hotalloc edge cuts — an allocation waiver is not a semantic waiver) and
// flags any field read of a watched type that the guarded-read allowlist does
// not cover. Two companion checks keep the allowlist honest: each configured
// generation setter must actually increment its counter, and setter-only
// fields must not be written anywhere else.
func checkCacheGen(prog *program, cfg *Config, g *callGraph) ([]Finding, error) {
	cg := cfg.CacheGen

	var roots []*types.Func
	for _, spec := range cg.CompileRoots {
		fns, err := g.resolveRoot(spec)
		if err != nil {
			return nil, err
		}
		roots = append(roots, fns...)
	}

	watched := map[*types.Named]bool{}
	for _, spec := range cg.WatchedTypes {
		n, err := resolveNamed(prog, spec)
		if err != nil {
			return nil, err
		}
		watched[n] = true
	}

	// Guarded reads come in two shapes: whole-type grants and per-field
	// grants. Resolving them up front turns allowlist typos into load errors
	// instead of silently-narrower coverage.
	guardedType := map[*types.Named]bool{}
	guardedField := map[*types.Var]bool{}
	for _, spec := range sortedKeys(cg.GuardedReads) {
		if f, err := resolveField(prog, spec); err == nil {
			guardedField[f] = true
			continue
		}
		n, err := resolveNamed(prog, spec)
		if err != nil {
			return nil, fmt.Errorf("lint: cachegen guarded read %q is neither a type nor a field", spec)
		}
		guardedType[n] = true
	}

	reached := g.reach(roots)
	fns := make([]*types.Func, 0, len(reached))
	for fn := range reached { //nvlint:ordered sorted by funcID on the next line
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return funcID(fns[i]) < funcID(fns[j]) })

	var out []Finding
	for _, fn := range fns {
		fd, ok := prog.funcs[fn]
		if !ok {
			continue
		}
		pkg := fd.pkg
		dirs := pkg.Directives[fileOf(pkg, fd.decl.Pos())]
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pkg.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			owner := namedOrElem(s.Recv())
			if owner == nil || !watched[owner] {
				return true
			}
			fld, ok := s.Obj().(*types.Var)
			if !ok {
				return true
			}
			if guardedType[owner] || guardedField[fld] {
				return true
			}
			f := finding(prog, pkg, dirs, sel.Sel.Pos(), RuleCacheGen,
				fmt.Sprintf("compile-path read of %s is not generation-guarded: a cached forward plan would bake it in with no counter to invalidate it; add a generation bump + GuardedReads entry, or move the read out of compilation", fieldSpec(owner, fld)))
			f.Chain = reached[fn]
			out = append(out, f)
			return true
		})
	}

	bumps, err := checkGenBumps(prog, cg, g)
	if err != nil {
		return nil, err
	}
	out = append(out, bumps...)
	writes, err := checkSetterOnly(prog, cg, g)
	if err != nil {
		return nil, err
	}
	out = append(out, writes...)
	return out, nil
}

// checkGenBumps verifies each configured setter increments every one of its
// generation counters: deleting the bump from World.SetCosts must fail the
// build, because every plan compiled before the change would replay against
// the new costs. Setters that replace several guarded inputs at once
// (SetProfile: cost model AND capability word) owe one bump per counter —
// each missing bump is its own finding, so a setter that moves only one of
// two generations is flagged for the other.
func checkGenBumps(prog *program, cg *CacheGenConfig, g *callGraph) ([]Finding, error) {
	var out []Finding
	for _, setterSpec := range sortedKeys(cg.GenBumps) {
		fn, err := resolveSingle(g, setterSpec)
		if err != nil {
			return nil, err
		}
		fd, ok := prog.funcs[fn]
		if !ok {
			return nil, fmt.Errorf("lint: cachegen setter %q has no body in the loaded program", setterSpec)
		}
		for _, fieldSpec := range cg.GenBumps[setterSpec] {
			fld, err := resolveField(prog, fieldSpec)
			if err != nil {
				return nil, err
			}
			if incrementsField(fd.pkg, fd.decl.Body, fld) {
				continue
			}
			pkg := fd.pkg
			dirs := pkg.Directives[fileOf(pkg, fd.decl.Pos())]
			out = append(out, finding(prog, pkg, dirs, fd.decl.Pos(), RuleCacheGen,
				fmt.Sprintf("generation setter %s does not increment %s; plans compiled before a call would replay stale state", funcID(fn), fieldSpec)))
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

// incrementsField reports whether the body contains fld++ or fld += n.
func incrementsField(pkg *Package, body *ast.BlockStmt, fld *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if n.Tok == token.INC && selectsField(pkg, n.X, fld) {
				found = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && selectsField(pkg, n.Lhs[0], fld) {
				found = true
			}
		}
		return !found
	})
	return found
}

// selectsField reports whether the expression is a field selection of fld.
func selectsField(pkg *Package, e ast.Expr, fld *types.Var) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	return ok && s.Kind() == types.FieldVal && s.Obj() == fld
}

// checkSetterOnly flags writes to a guarded field outside its designated
// setters — the write path that would skip the generation bump.
func checkSetterOnly(prog *program, cg *CacheGenConfig, g *callGraph) ([]Finding, error) {
	allowed := map[*types.Var]map[*types.Func]bool{}
	specOf := map[*types.Var]string{}
	for _, fieldSpec := range sortedKeys(cg.SetterOnly) {
		fld, err := resolveField(prog, fieldSpec)
		if err != nil {
			return nil, err
		}
		specOf[fld] = fieldSpec
		allowed[fld] = map[*types.Func]bool{}
		for _, setterSpec := range cg.SetterOnly[fieldSpec] {
			fn, err := resolveSingle(g, setterSpec)
			if err != nil {
				return nil, err
			}
			allowed[fld][fn] = true
		}
	}
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
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					var lhs []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						lhs = n.Lhs
					case *ast.IncDecStmt:
						lhs = []ast.Expr{n.X}
					default:
						return true
					}
					for _, e := range lhs {
						for fld, setters := range allowed { //nvlint:ordered at most one field matches one LHS
							if !selectsField(pkg, e, fld) || setters[fn] {
								continue
							}
							out = append(out, finding(prog, pkg, dirs, e.Pos(), RuleCacheGen,
								fmt.Sprintf("%s writes %s outside its designated setter; the generation bump that invalidates cached plans would be skipped", funcID(fn), specOf[fld])))
						}
					}
					return true
				})
			}
		}
	}
	return out, nil
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// iteration over config maps.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
