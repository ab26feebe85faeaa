package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callGraph is the static call graph over module-declared functions, with
// class-hierarchy analysis (CHA) for interface method calls: a call through
// an interface adds edges to every module type implementing it.
type callGraph struct {
	prog *program
	// edges maps a caller to its deterministic, deduplicated callee list.
	edges map[*types.Func][]*types.Func
	// cutEdges holds the edges removed by //nvlint:ignore hotalloc call-site
	// directives. The hotalloc walk honors the cuts; the cache-soundness walk
	// must not (an allocation waiver is not a semantic waiver), so it
	// traverses edges ∪ cutEdges.
	cutEdges map[*types.Func][]*types.Func
	// cuts records which directive cut edges in which caller, so a cut is
	// counted as "used" only when the caller actually lands in the hot set.
	cuts []cutRecord
	// implCache memoizes CHA results per interface method.
	implCache map[string][]*types.Func
}

// cutRecord pairs an edge-cutting directive with the function it cut in.
type cutRecord struct {
	caller *types.Func
	dir    *directive
}

// buildCallGraph scans every module function body once.
func buildCallGraph(prog *program) *callGraph {
	g := &callGraph{
		prog:      prog,
		edges:     make(map[*types.Func][]*types.Func),
		cutEdges:  make(map[*types.Func][]*types.Func),
		implCache: make(map[string][]*types.Func),
	}
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			dirs := pkg.Directives[f]
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.scanBody(pkg, dirs, caller, fd.Body)
			}
		}
	}
	return g
}

// scanBody records the callees of one function body. An //nvlint:ignore
// hotalloc directive at a call site cuts the edge, and calls inside the
// error-construction exemption (fmt.Errorf / errors.New in a return) do not
// pull their helpers into the hot set: bail-out paths may allocate.
func (g *callGraph) scanBody(pkg *Package, dirs *fileDirectives, caller *types.Func, body *ast.BlockStmt) {
	seen := make(map[*types.Func]bool)
	seenCut := make(map[*types.Func]bool)
	exempt := errorReturnRanges(pkg, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, r := range exempt {
			if call.Pos() >= r.lo && call.End() <= r.hi {
				return true
			}
		}
		line := g.prog.fset.Position(call.Pos()).Line
		cutBy := dirs.suppressionDirective(RuleHotAlloc, line)
		for _, callee := range g.callees(pkg, call) {
			if _, inModule := g.prog.funcs[callee]; !inModule {
				continue
			}
			if cutBy != nil {
				if !seenCut[callee] {
					seenCut[callee] = true
					g.cutEdges[caller] = append(g.cutEdges[caller], callee)
					g.cuts = append(g.cuts, cutRecord{caller: caller, dir: cutBy})
				}
				continue
			}
			if !seen[callee] {
				seen[callee] = true
				g.edges[caller] = append(g.edges[caller], callee)
			}
		}
		return true
	})
	sort.Slice(g.edges[caller], func(i, j int) bool {
		return funcID(g.edges[caller][i]) < funcID(g.edges[caller][j])
	})
	sort.Slice(g.cutEdges[caller], func(i, j int) bool {
		return funcID(g.cutEdges[caller][i]) < funcID(g.cutEdges[caller][j])
	})
}

// callees resolves one call expression to the functions it may invoke.
func (g *callGraph) callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return g.implementations(iface, sel.Obj().(*types.Func))
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*types.Func{fn}
			}
			return nil
		}
		// Package-qualified call (pkg.Fn) or method expression.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementations returns, for an interface method, every module-declared
// concrete method satisfying it (CHA), in deterministic order.
func (g *callGraph) implementations(iface *types.Interface, m *types.Func) []*types.Func {
	key := iface.String() + "." + m.Name()
	if impls, ok := g.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.prog.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			impls = append(impls, fn)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return funcID(impls[i]) < funcID(impls[j]) })
	g.implCache[key] = impls
	return impls
}

// hotSet walks the graph from the roots and returns every reachable module
// function with its shortest call chain from a root. Functions marked
// //nvlint:cold are pruned (not visited, not traversed through).
func (g *callGraph) hotSet(roots []*types.Func) map[*types.Func][]string {
	parent := make(map[*types.Func]*types.Func)
	visited := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	sort.Slice(queue, func(i, j int) bool { return funcID(queue[i]) < funcID(queue[j]) })
	for _, r := range queue {
		visited[r] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range g.edges[cur] {
			if visited[callee] {
				continue
			}
			if fd, ok := g.prog.funcs[callee]; ok && funcMarker(fd.decl) == "cold" {
				markFuncMarkerUsed(fd.pkg, fd.decl, "cold")
				continue
			}
			visited[callee] = true
			parent[callee] = cur
			queue = append(queue, callee)
		}
	}
	out := make(map[*types.Func][]string, len(visited))
	for fn := range visited { //nvlint:ordered consumers sort by function identity
		var chain []string
		for cur := fn; cur != nil; cur = parent[cur] {
			chain = append(chain, funcID(cur))
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		out[fn] = chain
	}
	return out
}

// reach walks the graph from the roots over edges ∪ cutEdges — no cold
// pruning, no hotalloc cut honoring — and returns every reachable module
// function with its shortest call chain from a root. The cachegen rule uses
// this walk: a function excused from the allocation contract still
// participates in plan compilation.
func (g *callGraph) reach(roots []*types.Func) map[*types.Func][]string {
	parent := make(map[*types.Func]*types.Func)
	visited := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	sort.Slice(queue, func(i, j int) bool { return funcID(queue[i]) < funcID(queue[j]) })
	for _, r := range queue {
		visited[r] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		callees := append(append([]*types.Func(nil), g.edges[cur]...), g.cutEdges[cur]...)
		sort.Slice(callees, func(i, j int) bool { return funcID(callees[i]) < funcID(callees[j]) })
		for _, callee := range callees {
			if visited[callee] {
				continue
			}
			visited[callee] = true
			parent[callee] = cur
			queue = append(queue, callee)
		}
	}
	out := make(map[*types.Func][]string, len(visited))
	for fn := range visited { //nvlint:ordered consumers sort by function identity
		var chain []string
		for cur := fn; cur != nil; cur = parent[cur] {
			chain = append(chain, funcID(cur))
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		out[fn] = chain
	}
	return out
}

// resolveRoot parses a root spec — "pkg/path.Func", "pkg/path.(*Recv).Method"
// or "pkg/path.Iface.Method" — into concrete root functions.
func (g *callGraph) resolveRoot(spec string) ([]*types.Func, error) {
	pkg, rest := splitQualified(g.prog, spec)
	if pkg == nil {
		return nil, fmt.Errorf("lint: hot root %q: package not loaded", spec)
	}
	scope := pkg.Types.Scope()
	switch {
	case strings.HasPrefix(rest, "("):
		// (*Recv).Method or (Recv).Method
		end := strings.Index(rest, ")")
		if end < 0 || !strings.HasPrefix(rest[end+1:], ".") {
			return nil, fmt.Errorf("lint: hot root %q: malformed receiver", spec)
		}
		recv := strings.TrimPrefix(rest[1:end], "*")
		method := rest[end+2:]
		tn, ok := scope.Lookup(recv).(*types.TypeName)
		if !ok {
			return nil, fmt.Errorf("lint: hot root %q: type %s not found", spec, recv)
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			return nil, fmt.Errorf("lint: hot root %q: method %s not found", spec, method)
		}
		return []*types.Func{fn}, nil
	case strings.Contains(rest, "."):
		// Iface.Method: every module implementation becomes a root.
		name, method, _ := strings.Cut(rest, ".")
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			return nil, fmt.Errorf("lint: hot root %q: type %s not found", spec, name)
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, fmt.Errorf("lint: hot root %q: %s is not an interface", spec, name)
		}
		var m *types.Func
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method {
				m = iface.Method(i)
			}
		}
		if m == nil {
			return nil, fmt.Errorf("lint: hot root %q: interface method %s not found", spec, method)
		}
		impls := g.implementations(iface, m)
		if len(impls) == 0 {
			return nil, fmt.Errorf("lint: hot root %q: no module implementations", spec)
		}
		return impls, nil
	default:
		fn, ok := scope.Lookup(rest).(*types.Func)
		if !ok {
			return nil, fmt.Errorf("lint: hot root %q: function not found", spec)
		}
		return []*types.Func{fn}, nil
	}
}

// splitQualified splits "pkg/path.Rest" on the loaded package with the
// longest matching path prefix.
func splitQualified(prog *program, spec string) (*Package, string) {
	var best *Package
	rest := ""
	for _, pkg := range prog.pkgs {
		if strings.HasPrefix(spec, pkg.Path+".") {
			if best == nil || len(pkg.Path) > len(best.Path) {
				best = pkg
				rest = strings.TrimPrefix(spec, pkg.Path+".")
			}
		}
	}
	return best, rest
}

// funcID renders a stable human-readable identity: pkg/path.(*Recv).Method
// or pkg/path.Func.
func funcID(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		recv := ""
		if p, ok := rt.(*types.Pointer); ok {
			recv = "(*" + typeBase(p.Elem()) + ")"
		} else {
			recv = "(" + typeBase(rt) + ")"
		}
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func typeBase(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
