package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("repro/internal/hyper").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, object resolution and method-call
	// selections the rules consult.
	Info *types.Info
	// Directives holds the nvlint comment directives per file.
	Directives map[*ast.File]*fileDirectives
}

// program is the loaded module: every package, a shared FileSet, and the
// indexes the call-graph and rules share.
type program struct {
	fset *token.FileSet
	// pkgs holds the packages in deterministic (sorted-path) order.
	pkgs []*Package
	// byPath resolves an import path to its loaded package.
	byPath map[string]*Package
	// funcs maps every module-declared function or method to its body.
	funcs map[*types.Func]*funcDecl
	// named lists every module-declared named type, in deterministic order,
	// for interface-implementation (CHA) queries.
	named []*types.Named
}

// funcDecl pairs a declaration with the package whose Info resolves it.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// load parses and type-checks every package under cfg.Dir plus the extra
// cfg.Deps packages, resolving module-internal imports among them and
// standard-library imports from source (no compiled export data is assumed
// to exist, and no third-party loader is available).
func load(cfg *Config) (*program, error) {
	fset := stdFset
	dirs, err := packageDirs(cfg.Dir, cfg.ModulePath)
	if err != nil {
		return nil, err
	}
	//nvlint:ordered appended set is sorted by path immediately below
	for path, dir := range cfg.Deps {
		dirs = append(dirs, pkgDir{path: path, dir: dir})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].path < dirs[j].path })

	// Parse everything first so import edges are known before type checking.
	parsed := make(map[string]*parsedPkg, len(dirs))
	order := make([]string, 0, len(dirs))
	for _, d := range dirs {
		p, err := parseDir(fset, d)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // no non-test Go files
		}
		if _, dup := parsed[d.path]; dup {
			return nil, fmt.Errorf("lint: duplicate package path %s", d.path)
		}
		parsed[d.path] = p
		order = append(order, d.path)
	}

	prog := &program{
		fset:   fset,
		byPath: make(map[string]*Package, len(parsed)),
		funcs:  make(map[*types.Func]*funcDecl),
	}
	imp := &moduleImporter{prog: prog}

	// Type-check in dependency order among the loaded packages.
	sorted, err := topoSort(order, parsed)
	if err != nil {
		return nil, err
	}
	for _, path := range sorted {
		p := parsed[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		tconf := types.Config{Importer: imp}
		tpkg, err := tconf.Check(path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		pkg := &Package{
			Path:       path,
			Dir:        p.dir,
			Files:      p.files,
			Types:      tpkg,
			Info:       info,
			Directives: make(map[*ast.File]*fileDirectives, len(p.files)),
		}
		for _, f := range p.files {
			pkg.Directives[f] = parseDirectives(fset, f)
		}
		prog.byPath[path] = pkg
		prog.pkgs = append(prog.pkgs, pkg)
		prog.index(pkg)
	}
	sort.Slice(prog.pkgs, func(i, j int) bool { return prog.pkgs[i].Path < prog.pkgs[j].Path })
	return prog, nil
}

// index records the package's function bodies and named types.
func (prog *program) index(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				prog.funcs[obj] = &funcDecl{pkg: pkg, decl: fd}
			}
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			prog.named = append(prog.named, n)
		}
	}
}

// pkgDir is one directory to load as one package.
type pkgDir struct {
	path string
	dir  string
}

// packageDirs walks the module tree collecting every directory holding Go
// sources, skipping testdata, hidden and underscore-prefixed directories.
func packageDirs(root, modulePath string) ([]pkgDir, error) {
	var out []pkgDir
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				path := modulePath
				if rel != "." {
					path = modulePath + "/" + filepath.ToSlash(rel)
				}
				out = append(out, pkgDir{path: path, dir: p})
				break
			}
		}
		return nil
	})
	return out, err
}

// parsedPkg is a parsed-but-not-yet-type-checked package.
type parsedPkg struct {
	dir     string
	files   []*ast.File
	imports []string
}

// parseDir parses the non-test sources of one directory. Returns nil when the
// directory holds no non-test Go files.
func parseDir(fset *token.FileSet, d pkgDir) (*parsedPkg, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	p := &parsedPkg{dir: d.dir}
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(d.dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s holds two packages (%s, %s)", d.dir, pkgName, f.Name.Name)
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			p.imports = append(p.imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	sort.Slice(p.files, func(i, j int) bool {
		return fset.File(p.files[i].Pos()).Name() < fset.File(p.files[j].Pos()).Name()
	})
	return p, nil
}

// topoSort orders package paths so every loaded import precedes its importer.
func topoSort(paths []string, parsed map[string]*parsedPkg) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
	out := make([]string, 0, len(paths))
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		p := parsed[path]
		deps := append([]string(nil), p.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := parsed[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[path] = done
		out = append(out, path)
		return nil
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The standard library is the same for every Run, so it is type-checked
// from source once per process and shared: every Run parses the module into
// stdFset, the FileSet stdImporter records standard-library positions in.
// token.FileSet is safe for concurrent use and resolves positions per file,
// so findings do not depend on what other Runs parsed. The source importer is
// not safe for concurrent use; stdMu serializes Import.
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil)
	stdMu       sync.Mutex
)

// moduleImporter resolves module-internal imports from the loaded program and
// everything else (the standard library) through the shared stdImporter.
type moduleImporter struct {
	prog *program
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.prog.byPath[path]; ok {
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.Import(path)
}
