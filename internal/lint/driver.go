package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Options configures a driver run.
type Options struct {
	// Patterns selects which loaded packages are analyzed. Each pattern is a
	// package path ("overshadow/internal/vmm"), a relative form ("./..." or
	// "./internal/vmm"), or a "/..." wildcard. Empty means everything.
	Patterns []string
	// JSON switches output from file:line text to a JSON array.
	JSON bool
	// Analyzers overrides the production analyzer set (tests).
	Analyzers []*Analyzer
}

// Run loads the module rooted at or above dir, runs the analyzers over the
// selected packages, and writes findings to w. It returns the reported
// findings; a non-nil error means the load itself failed.
func Run(w io.Writer, dir string, opts Options) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	// A pattern that selects nothing is almost always a typo; failing loudly
	// (like the go tool) keeps a misspelled CI invocation from silently
	// passing the gate.
	for _, p := range opts.Patterns {
		matched := false
		for _, pkg := range pkgs {
			if matchPattern(p, loader.ModulePath, pkg.Path) {
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	findings := Analyze(loader, pkgs, opts.Analyzers, opts.Patterns)
	relativize(findings, dir)
	if err := Render(w, findings, opts.JSON); err != nil {
		return nil, err
	}
	return findings, nil
}

// Analyze runs the analyzers (production set if nil) over every package
// matching patterns and returns allow-filtered, sorted findings. Malformed
// and stale allow directives are themselves reported.
func Analyze(loader *Loader, pkgs []*Package, analyzers []*Analyzer, patterns []string) []Finding {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	allows, findings := parseAllows(loader.Fset, pkgs)
	selected := func(pkgPath string) bool { return matchAny(patterns, loader.ModulePath, pkgPath) }
	for _, pkg := range pkgs {
		if !selected(pkg.Path) {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     loader.Fset,
				Pkg:      pkg,
				All:      pkgs,
				findings: &findings,
			}
			a.Run(pass)
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if !allows.allows(f.Analyzer, f.File, f.Line) {
			kept = append(kept, f)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	kept = append(kept, allows.stale(ran, selected)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// Render writes findings as text lines or JSON.
func Render(w io.Writer, findings []Finding, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		return enc.Encode(findings)
	}
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// relativize rewrites finding paths relative to dir for readable output.
func relativize(findings []Finding, dir string) {
	for i, f := range findings {
		if rel, err := filepath.Rel(dir, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
}

// matchAny reports whether pkgPath is selected by any pattern.
func matchAny(patterns []string, modulePath, pkgPath string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if matchPattern(p, modulePath, pkgPath) {
			return true
		}
	}
	return false
}

// matchPattern implements the small pattern language of the go tool that the
// CLI needs: "./..." and "./x/..." relative wildcards, exact relative paths,
// and full import paths with optional "/..." suffix.
func matchPattern(pattern, modulePath, pkgPath string) bool {
	pattern = strings.TrimSuffix(pattern, "/")
	if rest, ok := strings.CutPrefix(pattern, "./"); ok || pattern == "." {
		if pattern == "." {
			rest = ""
		}
		if rest == "" {
			pattern = modulePath
		} else if rest == "..." {
			pattern = modulePath + "/..."
		} else {
			pattern = modulePath + "/" + rest
		}
	}
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pkgPath == pattern
}
