// Package framework is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) plus a module-aware package loader built entirely on the
// standard library's go/parser, go/types and go/importer. The container
// that builds this repo has no module proxy access, so the canonical
// x/tools stack is unavailable; the subset implemented here is exactly
// what the hatlint suite needs, with API names kept compatible so the
// analyzers port to the upstream framework mechanically if it ever
// becomes vendorable.
//
// Suppressions: a diagnostic is suppressed by an end-of-line or
// preceding-line comment of the form
//
//	//hatlint:allow <analyzer> -- <justification>
//
// The justification is mandatory: an allow comment without a non-empty
// "-- reason" suffix is itself reported as a diagnostic, so silencing a
// finding always leaves a written trace of why.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check. The field set mirrors
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string // short lower-case identifier, used in //hatlint:allow
	Doc  string // one-paragraph description of what it reports
	Run  func(*Pass) (any, error)
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The loader wires it to collect
	// into the run's diagnostic list (after suppression filtering).
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the runner
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Suppression comments

var allowRe = regexp.MustCompile(`^//hatlint:allow\s+([a-z0-9_,]+)\s*(--\s*(.*))?$`)

// suppression is one parsed //hatlint:allow comment.
type suppression struct {
	line      int
	analyzers map[string]bool
	justified bool
	pos       token.Pos
}

// suppressions indexes a file's allow comments by the line they govern:
// the comment's own line, so both end-of-line and full-line (preceding)
// placement suppress the line the comment sits on or the line after.
type suppressions struct {
	byLine map[int][]*suppression
}

// ParseAllow parses one comment's text against the //hatlint:allow
// grammar. ok reports whether the text is an allow marker at all;
// names are the comma-separated analyzer names exactly as written
// (possibly empty segments — the runner rejects those as unregistered);
// justified reports whether a non-empty "-- <reason>" suffix follows.
// Exported so the fuzz harness and external tooling exercise the same
// parser the runner uses.
func ParseAllow(text string) (names []string, justified bool, ok bool) {
	m := allowRe.FindStringSubmatch(strings.TrimSpace(text))
	if m == nil {
		return nil, false, false
	}
	return strings.Split(m[1], ","), strings.TrimSpace(m[3]) != "", true
}

// parseSuppressions scans a file's comments for //hatlint:allow markers.
func parseSuppressions(fset *token.FileSet, f *ast.File) *suppressions {
	s := &suppressions{byLine: map[int][]*suppression{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names, justified, ok := ParseAllow(c.Text)
			if !ok {
				continue
			}
			sup := &suppression{
				line:      fset.Position(c.Pos()).Line,
				analyzers: map[string]bool{},
				justified: justified,
				pos:       c.Pos(),
			}
			for _, name := range names {
				sup.analyzers[name] = true
			}
			s.byLine[sup.line] = append(s.byLine[sup.line], sup)
		}
	}
	return s
}

// match returns the suppression covering (analyzer, line), if any. A
// comment covers its own line and the immediately following line (the
// full-line-comment-above placement).
func (s *suppressions) match(analyzer string, line int) *suppression {
	for _, l := range []int{line, line - 1} {
		for _, sup := range s.byLine[l] {
			if sup.analyzers[analyzer] {
				return sup
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Running analyzers over loaded packages

// Run executes every analyzer over every package and returns the
// surviving diagnostics sorted by position. Unjustified or unused
// suppression markers are themselves reported (as analyzer
// "suppression").
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	known := map[string]bool{"suppression": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		sups := make([]*suppressions, len(pkg.Files))
		for i, f := range pkg.Files {
			sups[i] = parseSuppressions(pkg.Fset, f)
		}
		fileFor := func(pos token.Pos) int {
			for i, f := range pkg.Files {
				if f.FileStart <= pos && pos <= f.FileEnd {
					return i
				}
			}
			return -1
		}
		used := map[*suppression]bool{}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				if i := fileFor(d.Pos); i >= 0 {
					line := pkg.Fset.Position(d.Pos).Line
					if sup := sups[i].match(a.Name, line); sup != nil {
						used[sup] = true
						if !sup.justified {
							out = append(out, Diagnostic{
								Pos:      sup.pos,
								Analyzer: "suppression",
								Message: fmt.Sprintf(
									"//hatlint:allow %s needs a justification (\"-- <reason>\")", a.Name),
							})
						}
						return
					}
				}
				out = append(out, d)
			}
			if _, err := a.Run(pass); err != nil {
				out = append(out, Diagnostic{
					Pos:      pkg.Files[0].Pos(),
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer error: %v", err),
				})
			}
		}
		// An allow comment that suppressed nothing is stale — flag it so
		// suppressions cannot outlive the code they excused. A comment
		// naming an analyzer that is not registered can never suppress
		// anything (typo, or a check since renamed), so it is rejected
		// outright instead of reported as merely unused.
		for _, s := range sups {
			for _, list := range s.byLine {
				for _, sup := range list {
					var unknown []string
					for n := range sup.analyzers {
						if !known[n] {
							unknown = append(unknown, n)
						}
					}
					if len(unknown) > 0 {
						sort.Strings(unknown)
						out = append(out, Diagnostic{
							Pos:      sup.pos,
							Analyzer: "suppression",
							Message: fmt.Sprintf(
								"//hatlint:allow names unregistered analyzer %s (see cmd/hatlint -list)",
								strings.Join(unknown, ",")),
						})
						continue
					}
					if !used[sup] {
						names := make([]string, 0, len(sup.analyzers))
						for n := range sup.analyzers {
							names = append(names, n)
						}
						sort.Strings(names)
						out = append(out, Diagnostic{
							Pos:      sup.pos,
							Analyzer: "suppression",
							Message:  fmt.Sprintf("unused //hatlint:allow %s", strings.Join(names, ",")),
						})
					}
				}
			}
		}
	}
	sortDiagnostics(pkgs, out)
	return out
}

func sortDiagnostics(pkgs []*Package, ds []Diagnostic) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
