// Package analysistest runs numalint analyzers over fixtures and checks
// their diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// A fixture is either a flat directory of Go files forming one package
// that imports only the standard library (Run; conventionally under a
// testdata/src/<name> tree, which the go tool ignores), or a module with
// its own go.mod, loaded like the repository itself (RunModule), for
// checks that span packages. Each line that should be diagnosed carries
// a comment of the form
//
//	// want `regexp`
//
// (backquoted or double-quoted; several patterns may follow one want for
// lines with several findings).
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"numasim/internal/analysis"
	"numasim/internal/analysis/load"
)

// Option adjusts a fixture run.
type Option func(*config)

type config struct {
	importPath string
}

// WithImportPath type-checks the fixture under the given import path,
// letting tests exercise path-keyed analyzer configuration (e.g. the
// determinism analyzer's restricted-package list).
//
//numalint:api the fixture tests of the callers, determinism and violation passes
func WithImportPath(path string) Option {
	return func(c *config) { c.importPath = path }
}

// TestData returns the caller package's testdata/src root.
//
//numalint:api every pass's fixture test under internal/analysis/passes
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata", "src")
}

// Run applies the analyzer to the fixture directory and reports any
// mismatch between its diagnostics and the fixture's want comments.
//
//numalint:api every pass's fixture test under internal/analysis/passes
func Run(t *testing.T, dir string, a *analysis.Analyzer, opts ...Option) {
	t.Helper()
	cfg := config{importPath: "fixture/" + filepath.Base(dir)}
	for _, o := range opts {
		o(&cfg)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	pkg, err := load.Check(cfg.importPath, fset, files, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatalf("analysistest: type-checking %s: %v", dir, err)
	}
	index := analysis.NewIndex()
	index.Add(pkg.Types, pkg.Files, pkg.TypesInfo)
	findings, err := analysis.Run(fset, pkg.Files, pkg.Types, pkg.TypesInfo, index, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}
	check(t, fset, files, findings)
}

// RunModule loads every package of the fixture module rooted at dir (a
// directory holding a go.mod) as cmd/numalint loads the repository,
// applies the analyzers to each, and reports any mismatch with the want
// comments of all its files.
//
//numalint:api TestCrossPackageDirectives (cmd/numalint)
func RunModule(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, index, err := load.Packages(dir, "./...")
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	var fset *token.FileSet
	var files []string
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		fset = pkg.Fset // shared by every package of one load
		for _, f := range pkg.Files {
			files = append(files, fset.Position(f.Package).Filename)
		}
		got, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, index, analyzers)
		if err != nil {
			t.Fatalf("analysistest: %s: %v", pkg.PkgPath, err)
		}
		findings = append(findings, got...)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}
	check(t, fset, files, findings)
}

// check matches findings against the want comments in files.
func check(t *testing.T, fset *token.FileSet, files []string, findings []analysis.Finding) {
	t.Helper()
	wants := parseWants(t, files)
	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, f := range findings {
		posn := fset.Position(f.Diag.Pos)
		got[key{posn.Filename, posn.Line}] = append(got[key{posn.Filename, posn.Line}], f.Diag.Message)
	}

	for _, w := range wants {
		k := key{w.file, w.line}
		matched := false
		for i, msg := range got[k] {
			if w.re.MatchString(msg) {
				got[k] = append(got[k][:i], got[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
	var leftover []string
	//numalint:ordered — leftover is sorted before reporting
	for k, msgs := range got {
		for _, m := range msgs {
			leftover = append(leftover, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", filepath.Base(k.file), k.line, m))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRE matches one pattern in a want comment: `...` or "...".
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts // want comments from the fixture files.
func parseWants(t *testing.T, files []string) []want {
	t.Helper()
	var out []want
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			rest := line[idx+len("// want "):]
			matches := wantRE.FindAllStringSubmatch(rest, -1)
			if len(matches) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", filepath.Base(name), i+1, rest)
			}
			for _, m := range matches {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", filepath.Base(name), i+1, pat, err)
				}
				out = append(out, want{file: name, line: i + 1, re: re})
			}
		}
	}
	return out
}
