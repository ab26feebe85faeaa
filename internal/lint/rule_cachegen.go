package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkCacheGen is the plan-cache soundness rule. A replayed plan is only
// equivalent to recompiling when every input the compile path read is
// covered by the generation counter the plan table checks. The rule makes
// that set explicit: it walks the call graph from the compile root (through
// hotalloc edge cuts — an allocation waiver is not a semantic waiver) and
// flags any field read of a watched type that the guarded-read allowlist does
// not cover. Two companion checks keep the allowlist honest: each setter a
// guarded field designates must actually increment the counter, and the
// field must not be written anywhere else.
func checkCacheGen(prog *program, cfg *Config, g *callGraph) ([]Finding, error) {
	cg := cfg.CacheGen

	roots, err := g.resolveRoot(cg.CompileRoot)
	if err != nil {
		return nil, err
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

	setters, err := checkSetters(prog, cg, g)
	if err != nil {
		return nil, err
	}
	return append(out, setters...), nil
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

// checkSetters holds each guarded field's designated setters to the
// generation bump — deleting the bump from World.SetCosts must fail the
// build, because every plan compiled before a call would replay against the
// new costs — and flags writes to the field outside its setters, the write
// path that would skip the bump.
func checkSetters(prog *program, cg *CacheGenConfig, g *callGraph) ([]Finding, error) {
	gen, err := resolveField(prog, cg.Gen)
	if err != nil {
		return nil, err
	}
	var out []Finding
	allowed := map[*types.Var]map[*types.Func]bool{}
	specOf := map[*types.Var]string{}
	bumpChecked := map[*types.Func]bool{}
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
			if bumpChecked[fn] {
				continue
			}
			bumpChecked[fn] = true
			fd, ok := prog.funcs[fn]
			if !ok {
				return nil, fmt.Errorf("lint: cachegen setter %q has no body in the loaded program", setterSpec)
			}
			if !incrementsField(fd.pkg, fd.decl.Body, gen) {
				dirs := fd.pkg.Directives[fileOf(fd.pkg, fd.decl.Pos())]
				out = append(out, finding(prog, fd.pkg, dirs, fd.decl.Pos(), RuleCacheGen,
					fmt.Sprintf("generation setter %s does not increment %s; plans compiled before a call would replay stale state", funcID(fn), cg.Gen)))
			}
		}
	}
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
