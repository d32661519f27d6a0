package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Allow-comment grammar:
//
//	//overlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The directive suppresses findings from the named analyzers (or every
// analyzer, for the name "*") on the directive's own line or on the line
// immediately below it, so it can sit either at the end of the offending
// line or on its own line just above. The "-- reason" part is mandatory:
// an exception without a recorded justification is itself a finding. So is
// a stale one: an analyzer name that suppressed nothing, in a run where
// that analyzer checked the directive's package.

const allowPrefix = "//overlint:allow"

// allowDirective is one parsed //overlint:allow comment.
type allowDirective struct {
	Pkg       string // import path of the package holding the comment
	File      string
	Line, Col int
	Analyzers []string // "*" means all
	Reason    string
	used      map[string]bool // names that suppressed a finding
}

// allowSet indexes directives for suppression lookups.
type allowSet struct {
	all    []*allowDirective // in source order
	byLine map[string]map[int][]*allowDirective
}

// parseAllows scans every comment in the loaded packages, returning the
// directive set plus findings for malformed directives (missing reason).
func parseAllows(fset *token.FileSet, pkgs []*Package) (*allowSet, []Finding) {
	set := &allowSet{byLine: make(map[string]map[int][]*allowDirective)}
	var bad []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := fset.Position(c.Pos())
					d, ok := parseAllowText(c.Text)
					if !ok {
						bad = append(bad, Finding{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Analyzer: "overlint",
							Message:  `malformed directive: want "//overlint:allow <analyzer>[,...] -- <reason>"`,
						})
						continue
					}
					d.Pkg, d.File, d.Line, d.Col = pkg.Path, pos.Filename, pos.Line, pos.Column
					m := set.byLine[d.File]
					if m == nil {
						m = make(map[int][]*allowDirective)
						set.byLine[d.File] = m
					}
					m[d.Line] = append(m[d.Line], &d)
					set.all = append(set.all, &d)
				}
			}
		}
	}
	return set, bad
}

// parseAllowText parses the text of one allow comment.
func parseAllowText(text string) (allowDirective, bool) {
	rest := strings.TrimPrefix(text, allowPrefix)
	// Require a space (or end) after the prefix so "//overlint:allowx" fails.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return allowDirective{}, false
	}
	names, reason, found := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	if !found || reason == "" {
		return allowDirective{}, false
	}
	var d allowDirective
	d.Reason = reason
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			d.Analyzers = append(d.Analyzers, n)
		}
	}
	if len(d.Analyzers) == 0 {
		return allowDirective{}, false
	}
	return d, true
}

// allows reports whether a finding by analyzer at file:line is suppressed,
// and marks the name that suppressed it as used.
func (s *allowSet) allows(analyzer, file string, line int) bool {
	m := s.byLine[file]
	if m == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, d := range m[l] {
			for _, name := range d.Analyzers {
				if name == analyzer || name == "*" {
					if d.used == nil {
						d.used = make(map[string]bool)
					}
					d.used[name] = true
					return true
				}
			}
		}
	}
	return false
}

// stale reports every directive name that suppressed nothing. A name is
// judged only when its analyzer ran over the directive's package (ran lists
// the analyzers, analyzed selects the packages): an allow for an analyzer
// this run skipped may still be load-bearing. "*" is judged only when the
// whole production set ran.
func (s *allowSet) stale(ran map[string]bool, analyzed func(pkgPath string) bool) []Finding {
	var out []Finding
	for _, d := range s.all {
		if !analyzed(d.Pkg) {
			continue
		}
		for _, name := range d.Analyzers {
			if d.used[name] || !ranAll(ran, name) {
				continue
			}
			out = append(out, Finding{
				File: d.File, Line: d.Line, Col: d.Col,
				Analyzer: "overlint",
				Message:  fmt.Sprintf("stale directive: %s reports nothing here to suppress", name),
			})
		}
	}
	return out
}

// ranAll reports whether the analyzers a directive name covers all ran.
func ranAll(ran map[string]bool, name string) bool {
	if name != "*" {
		return ran[name]
	}
	for _, a := range Analyzers() {
		if !ran[a.Name] {
			return false
		}
	}
	return true
}
