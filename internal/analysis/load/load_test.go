package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numasim/internal/analysis/load"

	"go/token"
)

func write(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckUnparseableFile(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "bad.go", "package p\n\nfunc broken( {\n")
	_, err := load.Check("p", token.NewFileSet(), []string{path}, nil)
	if err == nil {
		t.Fatal("want a parse error for malformed source, got nil")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("parse error should name the file: %v", err)
	}
}

func TestCheckTypeError(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "typo.go", "package p\n\nfunc f() int { return undefinedIdent }\n")
	_, err := load.Check("p", token.NewFileSet(), []string{path}, nil)
	if err == nil {
		t.Fatal("want a type-check error for an undefined identifier, got nil")
	}
	if !strings.Contains(err.Error(), "undefinedIdent") {
		t.Errorf("type error should name the identifier: %v", err)
	}
}

func TestCheckTestFilesOnly(t *testing.T) {
	// An external _test package hands the loader nothing but test files;
	// analyzers never inspect test code, so Check returns an empty package
	// rather than an error.
	dir := t.TempDir()
	path := write(t, dir, "p_test.go", "package p_test\n")
	pkg, err := load.Check("p", token.NewFileSet(), []string{path}, nil)
	if err != nil {
		t.Fatalf("test-only package should load empty, got error: %v", err)
	}
	if len(pkg.Files) != 0 {
		t.Errorf("test files must be dropped, got %d files", len(pkg.Files))
	}
	if pkg.Types == nil || pkg.TypesInfo == nil {
		t.Error("empty package must still carry non-nil Types and TypesInfo")
	}
}

func TestCheckGood(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "ok.go", "package p\n\nfunc f() int { return 1 }\n")
	pkg, err := load.Check("p", token.NewFileSet(), []string{path}, nil)
	if err != nil {
		t.Fatalf("valid source should check: %v", err)
	}
	if len(pkg.Files) != 1 || pkg.Types.Name() != "p" {
		t.Errorf("unexpected package shape: files=%d name=%s", len(pkg.Files), pkg.Types.Name())
	}
}

func TestPackagesMissingPattern(t *testing.T) {
	root := moduleRoot(t)
	_, _, err := load.Packages(root, "./does/not/exist")
	if err == nil {
		t.Fatal("want an error for a pattern matching no package, got nil")
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Errorf("error should identify the failing go list invocation: %v", err)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}
