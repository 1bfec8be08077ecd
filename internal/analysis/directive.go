package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix is the waiver comment: //jsvet:allow <analyzer> <reason>.
const directivePrefix = "//jsvet:allow"

// A directive is one parsed //jsvet:allow comment.  hits counts the
// findings it suppressed this run, so the driver can report waivers
// that no longer waive anything.
type directive struct {
	TokPos   token.Pos
	Analyzer string // empty when malformed
	Reason   string // empty when missing (malformed)
	hits     int
}

// funcSpan is the source range waived by a directive in a function's
// doc comment.
type funcSpan struct {
	file       string
	start, end int // line range, inclusive
	d          *directive
}

// allowIndex answers "is this (analyzer, position) waived?" for one
// package, and retains the raw directives for driver-side hygiene
// checks (unknown analyzer, missing reason, stale waiver).
type allowIndex struct {
	// byLine maps file -> line -> directives allowed there.  A
	// directive comment covers its own line (trailing form) and the
	// next line (comment-above form); both entries share the one
	// directive so a suppression anywhere marks it used.
	byLine map[string]map[int][]*directive
	funcs  []funcSpan
	all    []*directive
}

func (ix *allowIndex) allows(analyzer string, pos token.Position) bool {
	if lines, ok := ix.byLine[pos.Filename]; ok {
		for _, d := range lines[pos.Line] {
			if d.Analyzer == analyzer {
				d.hits++
				return true
			}
		}
	}
	for _, fs := range ix.funcs {
		if fs.file == pos.Filename && fs.d.Analyzer == analyzer && pos.Line >= fs.start && pos.Line <= fs.end {
			fs.d.hits++
			return true
		}
	}
	return false
}

// parseDirective parses one comment line; ok is false for non-directives.
func parseDirective(text string) (directive, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	tail := strings.TrimPrefix(text, directivePrefix)
	if tail != "" && tail[0] != ' ' && tail[0] != '\t' {
		return directive{}, false // //jsvet:allowother — not this directive
	}
	rest := strings.TrimSpace(tail)
	var d directive
	if rest == "" {
		return d, true // malformed: no analyzer
	}
	name, reason, _ := strings.Cut(rest, " ")
	d.Analyzer = name
	d.Reason = strings.TrimSpace(reason)
	return d, true
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{byLine: make(map[string]map[int][]*directive)}
	add := func(file string, line int, d *directive) {
		if ix.byLine[file] == nil {
			ix.byLine[file] = make(map[int][]*directive)
		}
		ix.byLine[file][line] = append(ix.byLine[file][line], d)
	}
	byPos := make(map[token.Pos]*directive)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				parsed, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				d := &parsed
				d.TokPos = c.Pos()
				pos := fset.Position(c.Pos())
				ix.all = append(ix.all, d)
				byPos[c.Pos()] = d
				if d.Analyzer == "" {
					continue
				}
				add(pos.Filename, pos.Line, d)
				add(pos.Filename, pos.Line+1, d)
			}
		}
		// A directive in a function's doc comment waives the whole body.
		// The comment was already indexed above (doc comments are part of
		// f.Comments), so the span shares its directive — a suppression
		// through either route marks the one waiver used.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				d, ok := byPos[c.Pos()]
				if !ok || d.Analyzer == "" {
					continue
				}
				ix.funcs = append(ix.funcs, funcSpan{
					file:  fset.Position(fd.Pos()).Filename,
					start: fset.Position(fd.Pos()).Line,
					end:   fset.Position(fd.End()).Line,
					d:     d,
				})
			}
		}
	}
	return ix
}

// DirectiveChecker returns the hygiene analyzer the driver runs over
// every package: each //jsvet:allow must name a known analyzer, give a
// reason, and — when the named analyzer actually ran this invocation —
// suppress at least one finding.  A waiver that cannot be read back is
// as dangerous as the finding it hides, and a stale waiver that
// suppresses nothing licenses future code the reviewer never saw.
//
// ran lists the analyzers that executed before this checker; staleness
// is only judged for those, so deselecting an analyzer (jsvet -only)
// does not condemn its waivers.  The checker must run after the
// analyzers in the same Run call — suppressions are counted on the
// shared allow index as they happen.
func DirectiveChecker(known, ran []string) *Analyzer {
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}
	ranSet := make(map[string]bool, len(ran))
	for _, n := range ran {
		ranSet[n] = true
	}
	a := &Analyzer{
		Name: "directive",
		Doc:  "checks //jsvet:allow directives name a known analyzer, carry a reason, and still suppress something",
	}
	a.Run = func(pass *Pass) error {
		for _, d := range pass.allow.all {
			switch {
			case d.Analyzer == "":
				pass.Reportf(d.TokPos, "//jsvet:allow without an analyzer name")
			case !knownSet[d.Analyzer]:
				pass.Reportf(d.TokPos, "//jsvet:allow names unknown analyzer %q", d.Analyzer)
			case d.Reason == "":
				pass.Reportf(d.TokPos, "//jsvet:allow %s without a reason", d.Analyzer)
			case ranSet[d.Analyzer] && d.hits == 0:
				pass.Reportf(d.TokPos, "//jsvet:allow %s suppresses nothing (stale waiver — delete it)", d.Analyzer)
			}
		}
		return nil
	}
	return a
}
