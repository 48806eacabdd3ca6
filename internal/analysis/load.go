package analysis

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
)

// Unit is one type-checked analysis unit: a package's library files
// together with its in-package test files, or the external _test
// package of a directory. Units are what analyzers run over.
type Unit struct {
	ImportPath string
	ModulePath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	NilSafe    map[string]bool
}

// Loader discovers, parses and type-checks the module's packages
// using only the standard library: module-internal imports are
// resolved recursively from source by the loader itself, everything
// else (the standard library) through go/importer's source importer.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.ImporterFrom
	libs    map[string]*types.Package
	loading map[string]bool
	nilSafe map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		libs:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
		nilSafe:    make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath extracts the module path from the first "module" line.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded (library files only) from the module tree, everything else is
// delegated to the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.loadLib(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// loadLib type-checks the library (non-test) files of a module
// package, caching the result for importers.
func (l *Loader) loadLib(path string) (*types.Package, error) {
	if pkg, ok := l.libs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir, func(name string, f *ast.File) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.libs[path] = pkg
	return pkg, nil
}

// parseDir parses the .go files of one directory (no recursion),
// keeping files the filter accepts. Nil-safe receiver facts are
// harvested from every parsed file as a side effect.
func (l *Loader) parseDir(dir string, keep func(name string, f *ast.File) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), "_") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if keep(name, f) {
			files = append(files, f)
		}
	}
	return files, nil
}

// check type-checks one set of files as the package at importPath.
func (l *Loader) check(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	recordNilSafe(l.nilSafe, importPath, files)
	return pkg, info, nil
}

// LoadForAnalysis builds the analysis units of one directory: the
// package including its in-package test files, plus (when present)
// the external _test package. Library files are therefore analyzed in
// the same unit as the tests that exercise them, mirroring go vet.
func (l *Loader) LoadForAnalysis(dir string) ([]*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath := l.importPathFor(abs)

	var libAndOwn, external []*ast.File
	all, err := l.parseDir(abs, func(name string, f *ast.File) bool { return true })
	if err != nil {
		return nil, err
	}
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
			continue
		}
		libAndOwn = append(libAndOwn, f)
	}
	if len(libAndOwn) == 0 && len(external) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}

	var units []*Unit
	if len(libAndOwn) > 0 {
		pkg, info, err := l.check(importPath, libAndOwn)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath, ModulePath: l.ModulePath, Dir: abs, Fset: l.Fset,
			Files: libAndOwn, Pkg: pkg, Info: info, NilSafe: l.nilSafe,
		})
	}
	if len(external) > 0 {
		pkg, info, err := l.check(importPath+"_test", external)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath + "_test", ModulePath: l.ModulePath, Dir: abs, Fset: l.Fset,
			Files: external, Pkg: pkg, Info: info, NilSafe: l.nilSafe,
		})
	}
	return units, nil
}

// importPathFor synthesizes the import path of a directory inside the
// module tree (testdata directories included, for the golden tests).
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// ExpandPatterns resolves command-line package patterns ("./...",
// "dir/...", plain directories) to a sorted list of package
// directories. Walks skip testdata, hidden and vendor directories.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = l.ModuleRoot
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if hasGoFiles(abs) {
				add(abs)
			} else {
				return nil, fmt.Errorf("analysis: no Go files in %s", abs)
			}
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != abs && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

// RunRules loads every directory matched by patterns, applies the
// given analyzers (the full set, or the driver's -rules subset) and
// returns the sorted findings. All matched directories are loaded
// first so the module-level rules see one coherent unit set (call
// graph and cross-package summaries span exactly what the patterns
// name).
func RunRules(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	dirs, err := l.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadForAnalysis(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return RunUnits(units, analyzers), nil
}
