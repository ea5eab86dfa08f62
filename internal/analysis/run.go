package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding couples a diagnostic with the analyzer that produced it.
type Finding struct {
	Analyzer *Analyzer
	Diag     Diagnostic
}

// Run applies every analyzer to one type-checked package, reading
// declarations' directives and uses from index, and returns the findings
// sorted by file position (deterministic across runs).
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, index *Index, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			index:     index,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{Analyzer: a, Diag: d})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].Diag.Pos), fset.Position(findings[j].Diag.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return findings, nil
}
