// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The repository's determinism invariants (no wall clock in sim code,
// no global rand, no order-sensitive effects under map iteration, no
// blocking sends under a mutex, no == on sentinel errors) are each one
// Analyzer in a subpackage; cmd/jsvet is the multichecker driver.  The
// x/tools module is deliberately not imported — the toolchain is the
// only build dependency this repo has, and the subset of the API the
// five analyzers need (syntax + full type information + a fixture
// test harness) fits in a few hundred lines of stdlib Go.
//
// Findings can be waived in place with a directive comment:
//
//	//jsvet:allow <analyzer> <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing function (waiving the whole function, the
// form internal/sched uses for its real-time half).  The reason is
// mandatory; a reasonless or unknown-analyzer directive is itself
// reported by the driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer checks one invariant over a package.
type Analyzer struct {
	Name string // short lower-case identifier, used in directives
	Doc  string // one-paragraph description: invariant + failure mode
	Run  func(*Pass) error
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass connects an Analyzer to one package's syntax and types.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	allow *allowIndex
	out   *[]Diagnostic
}

// Reportf records a finding at pos unless an //jsvet:allow directive
// for this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(p.Analyzer.Name, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for TypesInfo.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// Run applies analyzers to one type-checked package and returns the
// surviving (non-waived) diagnostics sorted by position.
func Run(fset *token.FileSet, files []*ast.File, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	allow := buildAllowIndex(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			TypesInfo: info,
			allow:     allow,
			out:       &out,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
