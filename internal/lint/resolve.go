package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// resolveNamed resolves "pkg/path.Name" to a loaded named type.
func resolveNamed(prog *program, spec string) (*types.Named, error) {
	pkg, rest := splitQualified(prog, spec)
	if pkg == nil {
		return nil, fmt.Errorf("lint: type %q: package not loaded", spec)
	}
	tn, ok := pkg.Types.Scope().Lookup(rest).(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("lint: type %q not found", spec)
	}
	n, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("lint: type %q is not a named type", spec)
	}
	return n, nil
}

// resolveField resolves "pkg/path.Type.Field" to the struct field variable.
func resolveField(prog *program, spec string) (*types.Var, error) {
	i := strings.LastIndex(spec, ".")
	if i < 0 {
		return nil, fmt.Errorf("lint: field spec %q: want pkg/path.Type.Field", spec)
	}
	named, err := resolveNamed(prog, spec[:i])
	if err != nil {
		return nil, err
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, fmt.Errorf("lint: field spec %q: %s is not a struct", spec, named.Obj().Name())
	}
	name := spec[i+1:]
	for j := 0; j < st.NumFields(); j++ {
		if f := st.Field(j); f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("lint: field spec %q: no field %s", spec, name)
}

// fieldSpec renders a struct field as "pkg/path.Type.Field" for allowlist
// lookups and messages. The owning named type must be supplied because
// types.Var does not link back to it for embedded lookups.
func fieldSpec(owner *types.Named, f *types.Var) string {
	return ownerSpec(owner) + "." + f.Name()
}

// ownerSpec renders a named type as "pkg/path.Type".
func ownerSpec(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOrElem unwraps one pointer level before resolving the named type, for
// receiver and selection types that are usually *T.
func namedOrElem(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return namedOf(t)
}

// unusedDirectives reports, after all rules have run, every //nvlint comment
// that took no effect: ignores that suppressed nothing, ordered allowlists
// with no map range, hot/cold markers on functions the walk never consulted,
// and directives with an unknown verb. Each is a contract nobody is holding
// up anymore and should be deleted before it hides a future regression.
func unusedDirectives(prog *program) []Finding {
	var out []Finding
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			for _, dir := range pkg.Directives[f].all {
				p := prog.fset.Position(dir.pos)
				mk := func(msg string) {
					out = append(out, Finding{File: p.Filename, Line: p.Line, Rule: RuleDirective, Msg: msg})
				}
				switch dir.verb {
				case "ignore":
					if !dir.used {
						mk(fmt.Sprintf("stale //nvlint:ignore %s: no %s finding on this or the next line; delete it", dir.rule, dir.rule))
					}
				case "ordered":
					if !dir.used {
						mk("stale //nvlint:ordered: no map range on this or the next line; delete it")
					}
				case "hot", "cold":
					if !dir.used {
						mk(fmt.Sprintf("stale //nvlint:%s: the call-graph walk never consulted this marker; delete it", dir.verb))
					}
				default:
					mk(fmt.Sprintf("unknown nvlint directive %q (want ignore, ordered, hot or cold)", dir.verb))
				}
			}
		}
	}
	return out
}
