package determinism_test

import (
	"path/filepath"
	"testing"

	"numasim/internal/analysis/analysistest"
	"numasim/internal/analysis/passes/determinism"
)

func TestRestrictedImportPath(t *testing.T) {
	// Every ambient input is reported when the package lives in the
	// restricted subtree.
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "core_path"), determinism.Analyzer,
		analysistest.WithImportPath("numasim/internal/sim/fixture"))
}

func TestUnrestrictedPackageIsIgnored(t *testing.T) {
	// A host-side import path: the same code is legal. (The harness used
	// to be the canonical host-side path here, but the supervisor pulled
	// it into the deterministic core; report stays out.)
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "unrestricted"), determinism.Analyzer,
		analysistest.WithImportPath("numasim/internal/report/fixture"))
}

func TestHarnessIsRestricted(t *testing.T) {
	// The harness drives the deterministic simulations and renders their
	// byte-identical reports, so it is on the restricted list too.
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "core_path"), determinism.Analyzer,
		analysistest.WithImportPath("numasim/internal/harness/fixture"))
}

func TestHostsideEscape(t *testing.T) {
	// A //numalint:hostside doc directive exempts one function from the
	// function-level bans; the rest of the file stays checked.
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "hostside"), determinism.Analyzer,
		analysistest.WithImportPath("numasim/internal/harness/fixture"))
}

func TestPathBoundary(t *testing.T) {
	// A path that merely shares a prefix string (numasim/internal/simX)
	// must NOT be restricted: the boundary is a path separator.
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "unrestricted"), determinism.Analyzer,
		analysistest.WithImportPath("numasim/internal/simulators"))
}
