package hotpath_test

import (
	"path/filepath"
	"testing"

	"numasim/internal/analysis/analysistest"
	"numasim/internal/analysis/passes/hotpath"
)

func TestViolations(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "violations"), hotpath.Analyzer)
}

func TestColdpathEscapes(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "coldpath"), hotpath.Analyzer)
}

func TestInterfaceContractEnforcement(t *testing.T) {
	analysistest.Run(t, filepath.Join(analysistest.TestData(), "ifacecontract"), hotpath.Analyzer)
}
