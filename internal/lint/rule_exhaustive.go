package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkExhaustive verifies that every switch over a module-declared enum type
// (a named integer type with at least two constants of that exact type)
// covers every declared constant value, count sentinels aside, or carries an
// explicit default. The paper's accounting is a count-and-cost over exit
// reasons: a silently unhandled vmx.ExitReason corrupts the Figure 7–10
// numbers without failing any test.
func checkExhaustive(prog *program, cfg *Config) []Finding {
	enums := collectEnums(prog)
	var out []Finding
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			dirs := pkg.Directives[f]
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tagType := pkg.Info.TypeOf(sw.Tag)
				named := namedOf(tagType)
				if named == nil {
					return true
				}
				e, ok := enums[named]
				if !ok {
					return true
				}
				missing, hasDefault, analyzable := switchCoverage(pkg, sw, e)
				if !analyzable || hasDefault || len(missing) == 0 {
					return true
				}
				out = append(out, finding(prog, pkg, dirs, sw.Pos(), RuleExhaustive,
					fmt.Sprintf("switch over %s misses %s and has no default",
						e.name, strings.Join(missing, ", "))))
				return true
			})
		}
	}
	return out
}

// enumInfo describes one enum-like type: its display name and the declared
// constant values (each with one representative constant name).
type enumInfo struct {
	name string
	// values maps the exact constant value representation to the first
	// declared constant name holding it (aliases collapse to one value).
	values map[string]string
}

// collectEnums finds the enum-like types of the loaded program: named types
// with an integer underlying type and >= 2 package-level constants declared
// with that exact type, not counting a count sentinel (isCountSentinel).
func collectEnums(prog *program) map[*types.Named]*enumInfo {
	consts := make(map[*types.Named][]*types.Const)
	for _, pkg := range prog.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // sorted
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			named := namedOf(c.Type())
			if named == nil || named.Obj().Pkg() != pkg.Types {
				continue
			}
			b, ok := named.Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsInteger == 0 {
				continue
			}
			consts[named] = append(consts[named], c)
		}
	}
	enums := make(map[*types.Named]*enumInfo)
	for named, cs := range consts { //nvlint:ordered each type fills only its own map entry
		e := &enumInfo{
			name:   named.Obj().Pkg().Path() + "." + named.Obj().Name(),
			values: make(map[string]string),
		}
		for _, c := range cs {
			if isCountSentinel(c, cs) {
				continue
			}
			key := c.Val().ExactString()
			if _, seen := e.values[key]; !seen {
				e.values[key] = c.Name()
			}
		}
		if len(e.values) >= 2 {
			enums[named] = e
		}
	}
	return enums
}

// isCountSentinel reports whether c counts its type's members rather than
// being one: it is named Num…, num… or …Count, and its value is one past
// every other value of the type, like hyper.NumStages = StageSettle + 1. A
// switch need not cover it. Two sentinels may share the count.
func isCountSentinel(c *types.Const, all []*types.Const) bool {
	name := c.Name()
	if !strings.HasPrefix(name, "Num") && !strings.HasPrefix(name, "num") && !strings.HasSuffix(name, "Count") {
		return false
	}
	var last constant.Value
	for _, o := range all {
		v := o.Val()
		if constant.Compare(v, token.EQL, c.Val()) {
			continue
		}
		if last == nil || constant.Compare(v, token.GTR, last) {
			last = v
		}
	}
	return last != nil && constant.Compare(c.Val(), token.EQL, constant.BinaryOp(last, token.ADD, constant.MakeInt64(1)))
}

// switchCoverage computes which enum values the switch leaves uncovered. A
// switch with any non-constant case expression cannot be analyzed statically
// and is skipped (analyzable = false).
func switchCoverage(pkg *Package, sw *ast.SwitchStmt, e *enumInfo) (missing []string, hasDefault, analyzable bool) {
	covered := make(map[string]bool, len(e.values))
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pkg.Info.Types[expr]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
				return nil, hasDefault, false
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	for val, name := range e.values { //nvlint:ordered collected into missing and sorted below
		if !covered[val] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing, hasDefault, true
}

// namedOf unwraps a type to its named form, skipping aliases; returns nil for
// unnamed and builtin types.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	return n
}
