// Package load type-checks packages of this module for the numalint
// analyzers without any dependency outside the standard library.
//
// It drives `go list -deps -export -json` over every package of the
// module and the named patterns, which names each package dependencies
// first, and compiles (or fetches from the build cache) the export data
// of each. Packages outside the standard library are parsed and
// type-checked from source in that order, each against the ones before
// it, so one set of type objects spans the module, and every package's
// doc comments and uses are read into one index (analysis.Index);
// standard-library imports come from export data. The result is the same
// typed syntax an x/tools-based driver would hand an analyzer, and the
// index is the same whichever patterns are named.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"

	"numasim/internal/analysis"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File // non-test files, parsed with comments
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Match      []string // the command-line patterns that name the package
	Standard   bool
}

// NewInfo allocates a fully populated types.Info.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Check parses and type-checks one package from its file list. Test files
// are dropped (analyzers do not inspect them). imp may be nil for a
// package without imports.
func Check(pkgPath string, fset *token.FileSet, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		if analysis.IsTestFile(name) {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// Nothing but test files (an external _test package): analyzers do
		// not inspect test code, so return an empty package.
		return &Package{PkgPath: pkgPath, Fset: fset, Types: types.NewPackage(pkgPath, "_"), TypesInfo: NewInfo()}, nil
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Packages loads every package of the module that holds dir, with its
// dependencies outside the standard library, and returns the packages
// matching the go list patterns (e.g. "./...") under dir in import-path
// order, together with the index over every package checked from source.
func Packages(dir string, patterns ...string) ([]*Package, *analysis.Index, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, nil, err
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export,Match,Standard,Dir,GoFiles", filepath.Join(root, "...")}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	named := make(map[string]bool)
	for _, p := range patterns {
		named[p] = true
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	index := analysis.NewIndex()
	var targets []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for { // dependencies precede their importers
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		var names []string
		for _, g := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, g))
		}
		pkg, err := Check(p.ImportPath, fset, names, imp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg.Types
		index.Add(pkg.Types, pkg.Files, pkg.TypesInfo)
		for _, m := range p.Match {
			if named[m] {
				targets = append(targets, pkg)
				break
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].PkgPath < targets[j].PkgPath })
	return targets, index, nil
}

// moduleRoot returns the directory of the go.mod that governs dir.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
	}
}
