package picprk

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedName matches a test, fuzz target, benchmark or example name in
// prose; a subtest path ("TestX/sub") cites its top-level test.
var citedName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)

// declaredName matches a top-level test function declaration.
var declaredName = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)

// TestDocTestNamesExist fails on any test, fuzz target, benchmark or
// example the documents cite by a name that no _test.go file declares, in
// either module (this one and bench/), so a renamed or deleted test cannot
// leave a stale reference behind.
func TestDocTestNamesExist(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredName.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "ROADMAP.md", "bench/README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range citedName.FindAllString(string(src), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			cited++
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test names: the pattern is broken")
	}
}
