package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		in       string
		isDir    bool
		analyzer string
		reason   string
	}{
		{"// plain comment", false, "", ""},
		{"//jsvet:allow walltime real-scheduler only", true, "walltime", "real-scheduler only"},
		{"//jsvet:allow walltime", true, "walltime", ""},
		{"//jsvet:allow", true, "", ""},
		{"//jsvet:allowother", false, "", ""}, // no space: not the directive
	}
	for _, tc := range cases {
		d, ok := parseDirective(tc.in)
		if ok != tc.isDir {
			t.Errorf("%q: directive=%v, want %v", tc.in, ok, tc.isDir)
			continue
		}
		if !ok {
			continue
		}
		if d.Analyzer != tc.analyzer || d.Reason != tc.reason {
			t.Errorf("%q: parsed (%q, %q), want (%q, %q)", tc.in, d.Analyzer, d.Reason, tc.analyzer, tc.reason)
		}
	}
}

// fakeAnalyzer reports one finding on every line containing "BAD".
var fakeAnalyzer = &Analyzer{
	Name: "fake",
	Doc:  "test analyzer flagging lines containing BAD",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, "BAD") {
						pass.Reportf(c.Pos(), "bad thing")
					}
				}
			}
		}
		return nil
	},
}

func runDirective(t *testing.T, src string, ran []string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	checker := DirectiveChecker([]string{"fake"}, ran)
	diags, err := Run(fset, []*ast.File{f}, nil, []*Analyzer{fakeAnalyzer, checker})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// A waiver that suppresses a live finding is healthy; one that
// suppresses nothing is itself a diagnostic.
func TestDirectiveStaleWaiver(t *testing.T) {
	healthy := "package p\n\n//jsvet:allow fake it is fine here\n// BAD line\n"
	if diags := runDirective(t, healthy, []string{"fake"}); len(diags) != 0 {
		t.Fatalf("healthy waiver reported: %v", diags)
	}

	stale := "package p\n\n//jsvet:allow fake nothing left to hide\n// clean line\n"
	diags := runDirective(t, stale, []string{"fake"})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale waiver") {
		t.Fatalf("stale waiver diags = %v, want one stale report", diags)
	}
}

// Staleness is only judged for analyzers that ran: a deselected
// analyzer's waivers are left alone.
func TestDirectiveStaleSkipsUnranAnalyzers(t *testing.T) {
	stale := "package p\n\n//jsvet:allow fake reason\n// clean line\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", stale, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	checker := DirectiveChecker([]string{"fake"}, nil)
	diags, err := Run(fset, []*ast.File{f}, nil, []*Analyzer{checker})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("deselected analyzer's waiver condemned: %v", diags)
	}
}

// A function-doc waiver covering findings in the body is healthy even
// though the directive line itself is clean.
func TestDirectiveFuncSpanWaiverNotStale(t *testing.T) {
	src := `package p

// doc comment
//jsvet:allow fake whole function waived
func f() {
	// BAD one
	// BAD two
}
`
	if diags := runDirective(t, src, []string{"fake"}); len(diags) != 0 {
		t.Fatalf("func-span waiver reported: %v", diags)
	}
}

// Malformed directives are reported before staleness is considered.
func TestDirectiveMalformedStillReported(t *testing.T) {
	src := "package p\n\n//jsvet:allow fake\n// BAD line\n"
	diags := runDirective(t, src, []string{"fake"})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "without a reason") {
		t.Fatalf("diags = %v, want one missing-reason report", diags)
	}
}
