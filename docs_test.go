// Documentation checks, run by `make docs-check` (and plain go
// test): every relative markdown link in README.md and docs/ must
// resolve to a file in the repository, every `make <target>` the docs
// and CI tell a reader to run must be a Makefile target, every Go
// benchmark the docs name must exist, and every
// spec section the colfile implementation cites (§N in comments,
// errors and tests) must exist as a numbered heading in
// docs/FORMAT.md — the spec's numbering is load-bearing, so this is
// what makes renumbering a section a test failure instead of silent
// doc rot. docs/SEMANTICS.md is held the same way: its numeric values
// section, and every `SEMANTICS.md §N` citation. docs/OBSERVABILITY.md
// must carry a table row for every evaluator counter family.
package charles_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"charles"
	"charles/internal/obs"
	"charles/internal/seg"
)

// docFiles returns the markdown files the link check covers.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	more, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

// docBenchmark matches a Go benchmark name in prose or code.
var docBenchmark = regexp.MustCompile(`\bBenchmark[A-Z0-9_][A-Za-z0-9_]*`)

// benchFunc matches a benchmark function declaration.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark[A-Za-z0-9_]*)\(`)

// TestDocsBenchmarksExist fails on any BenchmarkX named in README.md
// or docs/*.md that no _test.go file in the module declares, so a
// deleted or renamed benchmark cannot linger in the docs.
func TestDocsBenchmarksExist(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllStringSubmatch(string(body), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docBenchmark.FindAllString(string(body), -1) {
			if !declared[name] {
				t.Errorf("%s: %s is not a benchmark function in any _test.go file", file, name)
			}
		}
	}
}

// makeCmd matches a make invocation in code position: inline code,
// a command line in a code block, or a CI step's run line — not
// prose that happens to say "make".
var makeCmd = regexp.MustCompile("(?m)(?:^[ \t]*|`|run: )make ([a-z][a-z0-9-]*)")

// TestDocsMakeTargetsExist fails on any `make <target>` in the docs,
// the verify skill or the CI workflow that names no Makefile target,
// so a retired target cannot linger in the instructions.
func TestDocsMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	files := append(docFiles(t),
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
		filepath.Join(".github", "workflows", "ci.yml"))
	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeCmd.FindAllStringSubmatch(string(body), -1) {
			if !targets[m[1]] {
				t.Errorf("%s: `make %s` names no Makefile target", file, m[1])
			}
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve fails on any relative markdown link whose
// target file does not exist.
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
		}
	}
}

// TestDocsFormatSectionsExist cross-checks the §N citations in the
// colfile implementation and its tests against docs/FORMAT.md's
// numbered headings.
func TestDocsFormatSectionsExist(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("docs", "FORMAT.md"))
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^#{2,3} ([0-9]+(?:\.[0-9]+)?)[. ]`)
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(spec), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("no numbered headings found in docs/FORMAT.md")
	}

	var sources []string
	for _, pat := range []string{filepath.Join("internal", "colfile", "*.go"), "colfile_test.go"} {
		got, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, got...)
	}
	if len(sources) < 2 {
		t.Fatalf("expected colfile sources, found %v", sources)
	}
	cite := regexp.MustCompile(`§([0-9]+(?:\.[0-9]+)?)`)
	for _, file := range sources {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(body), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites §%s, which is not a heading in docs/FORMAT.md", file, m[1])
			}
		}
	}
}

// semanticsCite matches a citation of a docs/SEMANTICS.md section.
var semanticsCite = regexp.MustCompile(`SEMANTICS\.md §([0-9]+(?:\.[0-9]+)?)`)

// TestDocsSemanticsSectionsExist pins docs/SEMANTICS.md: its numeric
// values section and the rules it states under its own headings, every
// `SEMANTICS.md §N` citation in the Go sources and the docs naming one
// of its headings, and README's semantics notes linking to it.
func TestDocsSemanticsSectionsExist(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("docs", "SEMANTICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^#{2,3} ([0-9]+(?:\.[0-9]+)?)\.? (.+)$`)
	sections := map[string]string{}
	for _, m := range heading.FindAllStringSubmatch(string(spec), -1) {
		sections[m[1]] = m[2]
	}
	for num, title := range map[string]string{
		"1":   "Numeric values",
		"1.1": "Ordinals",
		"1.2": "Decoding",
		"1.3": "Negative zero",
		"1.4": "NaN",
	} {
		if sections[num] != title {
			t.Errorf("docs/SEMANTICS.md §%s is %q, want %q", num, sections[num], title)
		}
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range semanticsCite.FindAllStringSubmatch(string(body), -1) {
			if _, ok := sections[m[1]]; !ok {
				t.Errorf("%s cites SEMANTICS.md §%s, which is not a heading in docs/SEMANTICS.md", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	notes := string(readme)
	if i := strings.Index(notes, "## Semantics notes"); i < 0 || !strings.Contains(notes[i:], "(docs/SEMANTICS.md)") {
		t.Error("README's \"Semantics notes\" does not link docs/SEMANTICS.md")
	}
}

// TestDocsObservabilityFamilies fails when docs/OBSERVABILITY.md has
// no table row for a family seg.Evaluator.RegisterCounters registers,
// so a new evaluator counter cannot ship undocumented.
func TestDocsObservabilityFamilies(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	seg.NewEvaluator(charles.GenerateVOC(10, 1)).RegisterCounters(reg)
	for _, fam := range reg.Names() {
		if !strings.Contains(string(doc), "| `"+fam+"` |") {
			t.Errorf("docs/OBSERVABILITY.md has no | `%s` | row", fam)
		}
	}
}
