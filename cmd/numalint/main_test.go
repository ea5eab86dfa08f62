package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numasim/internal/analysis/analysistest"
)

// moduleRoot is the repository root, two levels above cmd/numalint.
func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

// TestRepositoryIsClean runs every analyzer over the whole module: the
// invariants numalint enforces are part of the test suite, not just an
// optional lint step.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out strings.Builder
	npkgs, n, err := lint(&out, moduleRoot(t), []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
	if npkgs < 10 {
		t.Fatalf("analyzed only %d packages; expected the whole module", npkgs)
	}
	if n > 0 {
		t.Errorf("%d finding(s):\n%s", n, out.String())
	}
}

// TestPackagesAreCleanAlone lints single packages. Their in-module
// dependencies are loaded for their directives but not analyzed, so a
// hot call into another package is accepted on the callee's own
// //numalint:hotpath directive alone.
func TestPackagesAreCleanAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks most of the module")
	}
	for _, pattern := range []string{"./internal/vm", "./internal/policy"} {
		var out strings.Builder
		npkgs, n, err := lint(&out, moduleRoot(t), []string{pattern}, analyzers)
		if err != nil {
			t.Fatalf("linting %s: %v", pattern, err)
		}
		if npkgs != 1 {
			t.Errorf("numalint %s analyzed %d packages, want 1", pattern, npkgs)
		}
		if n > 0 {
			t.Errorf("numalint %s: %d finding(s):\n%s", pattern, n, out.String())
		}
	}
}

// TestCrossPackageDirectives loads a two-package fixture module as
// numalint loads the repository: directives declared in one package are
// the contracts every analyzer checks the other package's uses against.
func TestCrossPackageDirectives(t *testing.T) {
	analysistest.RunModule(t, filepath.Join("testdata", "xpkg"), analyzers...)
}
