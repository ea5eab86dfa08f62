package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numasim/internal/analysis"
	"numasim/internal/analysis/analysistest"
	"numasim/internal/analysis/passes/callers"
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

// TestPackagesAreCleanAlone lints single packages. The rest of the
// module is loaded for its directives and uses but not analyzed, so a hot
// call into another package is accepted on the callee's own
// //numalint:hotpath directive alone, and an exported name that only
// another package calls still has a caller. sim's and topology's exports
// are the ones other packages' tests read most.
func TestPackagesAreCleanAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks most of the module")
	}
	for _, pattern := range []string{"./internal/vm", "./internal/policy", "./internal/sim", "./internal/topology"} {
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

// TestCallersSeesUnnamedPackages lints one package of a fixture module:
// the callers pass counts a use in a package the command line does not
// name, so lib.UsedByApp, whose only caller is app, is not reported and
// lib.Unused is.
func TestCallersSeesUnnamedPackages(t *testing.T) {
	var out strings.Builder
	npkgs, n, err := lint(&out, filepath.Join("testdata", "callers"), []string{"./internal/lib"}, []*analysis.Analyzer{callers.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs != 1 || n != 1 || !strings.Contains(out.String(), "Unused has no caller") {
		t.Errorf("numalint ./internal/lib analyzed %d packages and reported %d finding(s), want 1 and only lib.Unused:\n%s", npkgs, n, out.String())
	}
}
