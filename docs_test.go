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

// codeSpan matches a fenced code block (group 1) or an inline code span
// (group 2): the places a document writes a command line.
var codeSpan = regexp.MustCompile("(?s)```[a-z]*\n(.*?)```|`([^`]+)`")

// commands are the CLIs whose documented command lines TestDocFlagsExist
// checks.
var commands = []string{"picrun", "picstat", "picbench", "picverify"}

// commandArgs matches an invocation of one of the commands (group 2) and the
// rest of its command line (group 3), up to a comment, a pipe, a chain or
// the end of the line. Group 1 catches a go tool that takes the command's
// package as an argument (`go test ./cmd/picrun -race`): its flags are the
// tool's, not the command's.
var commandArgs = regexp.MustCompile(`(go (?:build|test|tool|vet)\b[^\n]*?)?\b(` + strings.Join(commands, "|") + `)\b([^\n#|;&]*)`)

// passedFlag matches a -flag or --flag token in a command line's arguments.
var passedFlag = regexp.MustCompile(`(?:^|[\s\[])--?([A-Za-z][\w-]*)`)

// declaredFlag matches a flag declaration, flag.X("name", ...) or
// flag.XVar(v, "name", ...).
var declaredFlag = regexp.MustCompile(`\bflag\.\w+\(\s*(?:[^,()"]+,\s*)?"([^"]+)"`)

// TestDocFlagsExist fails on any -flag that a README or DESIGN command line
// passes to picrun, picstat, picbench or picverify and the command does not
// declare, so a
// deleted or renamed flag cannot leave a documented invocation that exits
// with "flag provided but not defined".
func TestDocFlagsExist(t *testing.T) {
	declared := map[string]map[string]bool{}
	for _, cmd := range commands {
		files, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared[cmd] = map[string]bool{"h": true, "help": true}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range declaredFlag.FindAllSubmatch(src, -1) {
				declared[cmd][string(m[1])] = true
			}
		}
		if len(declared[cmd]) < 4 {
			t.Fatalf("cmd/%s declares %d flags: the pattern is broken", cmd, len(declared[cmd])-2)
		}
	}
	passed := map[string]int{}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(string(src), -1) {
			// Join shell line continuations; an inline span that wraps in
			// the prose is one line.
			code := strings.ReplaceAll(span[1], "\\\n", " ")
			if span[2] != "" {
				code = strings.ReplaceAll(span[2], "\n", " ")
			}
			for _, call := range commandArgs.FindAllStringSubmatch(code, -1) {
				if call[1] != "" {
					continue
				}
				for _, f := range passedFlag.FindAllStringSubmatch(call[3], -1) {
					passed[call[2]]++
					if !declared[call[2]][f[1]] {
						t.Errorf("%s passes -%s to %s, which cmd/%s does not declare: %s",
							doc, f[1], call[2], call[2], strings.TrimSpace(call[0]))
					}
				}
			}
		}
	}
	for _, cmd := range commands {
		if passed[cmd] == 0 {
			t.Errorf("the documents pass no flags to %s: the pattern is broken", cmd)
		}
	}
}
