// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against `// want "regexp"` comments, the same
// contract as golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live in the shared module internal/analysis/testdata (the
// directory name keeps the go tool from building it as part of the
// repo); each analyzer has one fixture package holding at least one
// flagged case (a want comment) and one allowed case (idiomatic code,
// or an //jsvet:allow waiver, with no want comment).
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"jsymphony/internal/analysis"
	"jsymphony/internal/analysis/loader"
)

// expectation is one `// want` comment: diagnostics matching rx must
// appear on exactly this line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads the fixture package pattern rooted at testdataDir, applies
// the analyzer, and fails t on any mismatch between reported
// diagnostics and want comments.
func Run(t *testing.T, testdataDir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := loader.Load(testdataDir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %v under %s", patterns, testdataDir)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Info, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			if w := matchWant(wants, d); w != nil {
				w.matched = true
				continue
			}
			t.Errorf("unexpected diagnostic: %s", d)
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
			}
		}
	}
}

func matchWant(wants []*expectation, d analysis.Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// collectWants scans fixture comments for want expectations.
func collectWants(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitQuoted(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					rx, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses the body of a want comment: one or more
// double-quoted or backquoted regexps separated by spaces.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
	}
	return out, nil
}
