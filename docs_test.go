package repro

// The docs quote numbers together with the command that reproduces them; this
// test keeps those commands pointing at code that still exists.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	goCommandRe = regexp.MustCompile(`go (?:run|test)\b[^\n` + "`" + `]*`)
	pkgPathRe   = regexp.MustCompile(`(?:^|\s)(\./[\w./-]*)`)
	testNameRe  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	funcDeclRe  = regexp.MustCompile(`(?m)^func\s+(?:\([^)]*\)\s*)?(\w+)`)
)

// TestDocsNameExistingCode fails when README.md, DESIGN.md, EXPERIMENTS.md
// or the verify skill name a `go run`/`go test` package path that does not
// exist, or a Test/Benchmark/Fuzz identifier that is not a prefix of a
// function in the tree.
func TestDocsNameExistingCode(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDeclRe.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isFuncPrefix := func(name string) bool {
		for _, f := range funcs {
			if strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range goCommandRe.FindAllString(string(text), -1) {
			for _, m := range pkgPathRe.FindAllStringSubmatch(cmd, -1) {
				dir := strings.TrimSuffix(strings.TrimSuffix(m[1], "..."), "/")
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s: %q names %s, which is not a directory", doc, cmd, m[1])
				}
			}
		}
		seen := map[string]bool{}
		for _, name := range testNameRe.FindAllString(string(text), -1) {
			if !seen[name] && !isFuncPrefix(name) {
				t.Errorf("%s names %s, which no function in the tree starts with", doc, name)
			}
			seen[name] = true
		}
	}
}
