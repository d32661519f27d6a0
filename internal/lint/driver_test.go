package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestLoadAllCoversModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "overshadow" {
		t.Fatalf("module path = %q, want overshadow", loader.ModulePath)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]*Package)
	for _, p := range pkgs {
		got[p.Path] = p
	}
	for _, path := range []string{
		"overshadow/internal/sim",
		"overshadow/internal/mach",
		"overshadow/internal/vmm",
		"overshadow/internal/guestos",
		"overshadow/internal/cloak",
		"overshadow/cmd/overlint",
	} {
		p := got[path]
		if p == nil {
			t.Errorf("LoadAll missed %s", path)
			continue
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s loaded without type information", path)
		}
	}
	if _, ok := got["overshadow/internal/lint/testdata/src/determinism"]; ok {
		t.Error("LoadAll descended into a testdata directory")
	}
}

// TestTreeClean pins the clean-baseline invariant: the production analyzer
// set must report nothing on the repository itself. A regression here is
// exactly what `go run ./cmd/overlint ./...` would flag in CI.
func TestTreeClean(t *testing.T) {
	var out bytes.Buffer
	findings, err := Run(&out, ".", Options{Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("tree not overlint-clean: %s", f)
	}
}

func TestParseAllowText(t *testing.T) {
	cases := []struct {
		text      string
		ok        bool
		analyzers []string
		reason    string
	}{
		{"//overlint:allow determinism -- baton-scheduled", true, []string{"determinism"}, "baton-scheduled"},
		{"//overlint:allow determinism,cyclecharge -- two at once", true, []string{"determinism", "cyclecharge"}, "two at once"},
		{"//overlint:allow * -- blanket", true, []string{"*"}, "blanket"},
		{"//overlint:allow determinism", false, nil, ""},    // no reason
		{"//overlint:allow determinism --", false, nil, ""}, // empty reason
		{"//overlint:allow -- reason but no analyzer", false, nil, ""},
		{"//overlint:allowx determinism -- smushed prefix", false, nil, ""},
	}
	for _, c := range cases {
		d, ok := parseAllowText(c.text)
		if ok != c.ok {
			t.Errorf("parseAllowText(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if strings.Join(d.Analyzers, ",") != strings.Join(c.analyzers, ",") {
			t.Errorf("parseAllowText(%q) analyzers = %v, want %v", c.text, d.Analyzers, c.analyzers)
		}
		if d.Reason != c.reason {
			t.Errorf("parseAllowText(%q) reason = %q, want %q", c.text, d.Reason, c.reason)
		}
	}
}

// TestMalformedAllowIsAFinding loads a testdata package whose directive has
// no reason and checks that the driver reports it under analyzer "overlint".
func TestMalformedAllowIsAFinding(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const path = "overshadow/internal/lintbad"
	loader.Overrides = map[string]string{path: "testdata/src/malformedallow"}
	if _, err := loader.Load(path); err != nil {
		t.Fatal(err)
	}
	findings := Analyze(loader, loader.order, []*Analyzer{}, nil)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "overlint" || !strings.Contains(f.Message, "malformed directive") {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestStaleAllowIsAFinding checks that an allow name which suppressed
// nothing is reported under analyzer "overlint", but only in a run where
// that analyzer checked the directive's package.
func TestStaleAllowIsAFinding(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const path = "overshadow/internal/sim"
	loader.Overrides = map[string]string{path: "testdata/src/staleallow"}
	if _, err := loader.Load(path); err != nil {
		t.Fatal(err)
	}
	stale := func(patterns []string, analyzers ...*Analyzer) string {
		var lines []string
		for _, f := range Analyze(loader, loader.order, analyzers, patterns) {
			if f.Analyzer != "overlint" {
				t.Errorf("unexpected finding: %s", f)
				continue
			}
			lines = append(lines, fmt.Sprintf("%d: %s", f.Line, f.Message))
		}
		return strings.Join(lines, "\n")
	}
	// Only determinism ran: its unused name is stale, and the hotpathalloc
	// names cannot be judged.
	want := "13: stale directive: determinism reports nothing here to suppress"
	if got := stale(nil, DeterminismAnalyzer); got != want {
		t.Errorf("determinism run: got\n%s\nwant\n%s", got, want)
	}
	// Both ran: every unused name is stale, each used one is not.
	want = "13: stale directive: determinism reports nothing here to suppress\n" +
		"18: stale directive: hotpathalloc reports nothing here to suppress\n" +
		"23: stale directive: hotpathalloc reports nothing here to suppress"
	if got := stale(nil, DeterminismAnalyzer, HotPathAllocAnalyzer); got != want {
		t.Errorf("determinism+hotpathalloc run: got\n%s\nwant\n%s", got, want)
	}
	// A package the patterns did not select was not analyzed at all.
	if got := stale([]string{"overshadow/internal/vmm"}, DeterminismAnalyzer); got != "" {
		t.Errorf("unselected package: got\n%s\nwant nothing", got)
	}
}

func TestAllowSuppression(t *testing.T) {
	set := &allowSet{byLine: map[string]map[int][]*allowDirective{
		"k.go": {
			10: {{Analyzers: []string{"determinism"}}},
			20: {{Analyzers: []string{"*"}}},
		},
	}}
	for _, c := range []struct {
		analyzer string
		file     string
		line     int
		want     bool
	}{
		{"determinism", "k.go", 10, true},
		{"determinism", "k.go", 11, true}, // directive on the line above
		{"determinism", "k.go", 12, false},
		{"cyclecharge", "k.go", 10, false}, // different analyzer
		{"cyclecharge", "k.go", 20, true},  // wildcard
		{"determinism", "other.go", 10, false},
	} {
		if got := set.allows(c.analyzer, c.file, c.line); got != c.want {
			t.Errorf("allows(%s, %s:%d) = %v, want %v", c.analyzer, c.file, c.line, got, c.want)
		}
	}
}

func TestRenderJSON(t *testing.T) {
	in := []Finding{
		{File: "a.go", Line: 3, Col: 2, Analyzer: "determinism", Message: "m"},
	}
	var buf bytes.Buffer
	if err := Render(&buf, in, true); err != nil {
		t.Fatal(err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("JSON output does not round-trip: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("round-trip = %+v, want %+v", out, in)
	}

	buf.Reset()
	if err := Render(&buf, nil, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty JSON render = %q, want []", got)
	}
}

func TestRenderText(t *testing.T) {
	in := []Finding{
		{File: "a.go", Line: 3, Col: 2, Analyzer: "determinism", Message: "m"},
	}
	var buf bytes.Buffer
	if err := Render(&buf, in, false); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "a.go:3: determinism: m" {
		t.Errorf("text render = %q", got)
	}
}

func TestMatchPattern(t *testing.T) {
	const mod = "overshadow"
	for _, c := range []struct {
		pattern string
		pkg     string
		want    bool
	}{
		{"./...", "overshadow/internal/vmm", true},
		{"./...", "overshadow", true},
		{".", "overshadow", true},
		{".", "overshadow/internal/vmm", false},
		{"./internal/vmm", "overshadow/internal/vmm", true},
		{"./internal/vmm", "overshadow/internal/vmm/sub", false},
		{"./internal/...", "overshadow/internal/guestos", true},
		{"overshadow/internal/vmm", "overshadow/internal/vmm", true},
		{"overshadow/internal/...", "overshadow/internal/cloak", true},
		{"overshadow/internal/...", "overshadow/cmd/overlint", false},
	} {
		if got := matchPattern(c.pattern, mod, c.pkg); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.pkg, got, c.want)
		}
	}
}
