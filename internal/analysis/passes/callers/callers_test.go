package callers_test

import (
	"path/filepath"
	"testing"

	"numasim/internal/analysis/analysistest"
	"numasim/internal/analysis/passes/callers"
)

// TestCallers checks the fixture as a package under internal/: test-only,
// unreferenced and self-recursive declarations are reported, and so are
// types kept only by a blank interface assertion; interface methods and
// api-marked declarations are not, and an api line that is not needed
// is.
func TestCallers(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "callers"), callers.Analyzer,
		analysistest.WithImportPath("fixture/internal/callers"))
}

// TestOutsideInternal checks that the pass ignores packages that are not
// under internal/.
func TestOutsideInternal(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "outside"), callers.Analyzer)
}
