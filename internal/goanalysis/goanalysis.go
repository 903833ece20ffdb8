// Package goanalysis is the project's custom static-analysis pass: a
// stdlib-only analyzer driver (go/parser + go/types, no golang.org/x/tools)
// enforcing the repo-wide invariants every PR so far relies on —
// deterministic output at any worker width, crash-safe durable artifacts,
// context-threaded concurrency, and code that has a shipped caller.
// cmd/vgen-check is the CLI; the golden harness in golden_test.go drives
// each analyzer over `// want "re"` testdata.
//
// A finding is suppressed by the comment
//
//	//vgencheck:<directive> <reason>
//
// on the flagged line or the line above it. The reason is mandatory — a
// bare directive does not suppress and is itself reported — and every
// honored suppression lands in the deterministic inventory the tool
// prints, so waivers stay auditable. See DESIGN.md, "Invariant-enforcing
// static analysis".
package goanalysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant check.
type Analyzer struct {
	Name      string   // registry name, e.g. "maporder"
	Doc       string   // one-line description (vgen-check -list)
	Directive string   // suppression word: //vgencheck:<Directive> <reason>
	Packages  []string // package names the driver applies it to; nil = all
	Run       func(*Pass)
}

// Pass is one (analyzer, package) run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Refs      *Refs // module-wide, shared by every Pass of a run

	diags []diag
}

type diag struct {
	pos token.Pos
	msg string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, diag{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// Finding is one reported diagnostic, positioned root-relative.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Suppression is one honored //vgencheck waiver.
type Suppression struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Directive string `json:"directive"`
	Reason    string `json:"reason"`
	Used      bool   `json:"used"` // it masked at least one diagnostic
}

// Result is a full run: findings and the suppression inventory, both in
// deterministic order.
type Result struct {
	Packages     int           `json:"packages"`
	Findings     []Finding     `json:"findings"`
	Suppressions []Suppression `json:"suppressions"`
}

// directiveRe matches a vgencheck comment; the reason is everything after
// the first space.
var directiveRe = regexp.MustCompile(`^//vgencheck:([a-z]+)(?:[ \t]+(.*))?$`)

// testFuncRe matches a test function name as go test recognizes one.
// citeRe matches one cited in a waiver's reason, bare or pkg-qualified;
// it wants a suffix, so the plain words Test, Fuzz and Benchmark cite
// nothing.
var (
	testFuncRe = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)(?:[^a-z]|$)`)
	citeRe     = regexp.MustCompile(`\b(?:[a-z][a-z0-9_]*\.)?(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
)

type directiveAt struct {
	pos       token.Position
	directive string
	reason    string
	used      bool
}

// Analyze runs the analyzers over the module's selected packages,
// honoring each analyzer's package-name filter. The golden harness uses
// analyze directly to bypass the filter.
func Analyze(m *Module, analyzers []*Analyzer) *Result {
	return analyze(m, analyzers, true)
}

func analyze(m *Module, analyzers []*Analyzer, filter bool) *Result {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Directive] = true
	}

	// Non-nil slices so the -json report renders [] rather than null.
	res := &Result{Packages: len(m.Pkgs), Findings: []Finding{}, Suppressions: []Suppression{}}
	// waiverFinding reports a fault of the directive at pos itself.
	waiverFinding := func(pos token.Position, format string, args ...any) {
		res.Findings = append(res.Findings, Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: "vgencheck", Message: fmt.Sprintf(format, args...)})
	}
	// Suppression directives are collected per file; keyed by file:line.
	sups := map[string]*directiveAt{}
	var supOrder []*directiveAt
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					mm := directiveRe.FindStringSubmatch(c.Text)
					if mm == nil {
						continue
					}
					pos := m.Rel(m.Fset.Position(c.Pos()))
					reason := mm[2]
					// A reason ends at an embedded comment marker, so the
					// golden corpora can put `// want …` after a directive.
					if i := strings.Index(reason, "//"); i >= 0 {
						reason = reason[:i]
					}
					d := &directiveAt{pos: pos, directive: mm[1], reason: strings.TrimSpace(reason)}
					sups[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = d
					supOrder = append(supOrder, d)
					if !known[d.directive] {
						waiverFinding(pos, "unknown suppression directive %q", d.directive)
					} else if d.reason == "" {
						waiverFinding(pos, "unexplained suppression: //vgencheck:%s needs a reason", d.directive)
					}
					// An oracle waiver names the test that checks shipped
					// code against the waived reference; once that test is
					// gone, the reason no longer holds.
					for _, name := range citeRe.FindAllString(d.reason, -1) {
						if d.directive == "oracle" && !m.tests[name] {
							waiverFinding(pos, "stale citation: //vgencheck:oracle names %s, which no _test.go file declares", name)
						}
					}
				}
			}
		}
	}

	refs := buildRefs(m.loaded)
	for _, pkg := range m.Pkgs {
		for _, a := range analyzers {
			if filter && !a.applies(pkg.Name) {
				continue
			}
			pass := &Pass{
				Analyzer: a, Fset: m.Fset,
				Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, Refs: refs,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				pos := m.Rel(m.Fset.Position(d.pos))
				if s := matchSuppression(sups, pos, a.Directive); s != nil {
					s.used = true
					continue
				}
				res.Findings = append(res.Findings, Finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: a.Name, Message: d.msg,
				})
			}
		}
	}

	for _, d := range supOrder {
		// An explained waiver that masks nothing is stale — the code it
		// excused was fixed or moved — and stale waivers rot the audit
		// trail, so they are findings too.
		if known[d.directive] && d.reason != "" && !d.used {
			waiverFinding(d.pos, "stale suppression: //vgencheck:%s masks no finding; delete it", d.directive)
		}
		res.Suppressions = append(res.Suppressions, Suppression{
			File: d.pos.Filename, Line: d.pos.Line,
			Directive: d.directive, Reason: d.reason, Used: d.used,
		})
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res
}

func (a *Analyzer) applies(pkgName string) bool {
	if a.Packages == nil {
		return true
	}
	for _, n := range a.Packages {
		if n == pkgName {
			return true
		}
	}
	return false
}

// matchSuppression finds an explained directive for the analyzer on the
// diagnostic's line or the line directly above.
func matchSuppression(sups map[string]*directiveAt, pos token.Position, directive string) *directiveAt {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if s, ok := sups[fmt.Sprintf("%s:%d", pos.Filename, line)]; ok &&
			s.directive == directive && s.reason != "" {
			return s
		}
	}
	return nil
}

// Clean reports whether the run has no findings.
func (r *Result) Clean() bool { return len(r.Findings) == 0 }

// Format renders the result as vgen-check's text report: findings first
// (file:line:col: analyzer: message), then the suppression inventory.
// Output is byte-deterministic for a given tree.
func (r *Result) Format(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintln(w, f.String())
	}
	if len(r.Findings) == 0 {
		fmt.Fprintf(w, "vgen-check: clean (%d packages)\n", r.Packages)
	} else {
		fmt.Fprintf(w, "vgen-check: %d findings in %d packages\n", len(r.Findings), r.Packages)
	}
	if len(r.Suppressions) > 0 {
		fmt.Fprintf(w, "suppression inventory (%d):\n", len(r.Suppressions))
		for _, s := range r.Suppressions {
			state := "idle"
			if s.Used {
				state = "active"
			}
			reason := s.Reason
			if reason == "" {
				reason = "(no reason)"
			}
			fmt.Fprintf(w, "  %s:%d: vgencheck:%s [%s] %s\n", s.File, s.Line, s.Directive, state, reason)
		}
	}
}
