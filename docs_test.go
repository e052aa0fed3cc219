package cooper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docs are the documents whose names the tests below hold to the tree.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "internal/README.md"}

// TestDocsNameExistingCommands keeps the docs and the Makefile honest
// about names: every ./cmd/<name> they mention is a directory, every
// `make <target>` the docs quote is a Makefile target, and every
// prerequisite of `ci` is defined — so a deleted command or target fails
// here, not in a `make ci` nobody ran.
func TestDocsNameExistingCommands(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	makefile := read("Makefile")
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}

	cmdRef := regexp.MustCompile(`\./cmd/([a-z][a-z0-9-]*)`)
	for _, path := range []string{"Makefile", "README.md", "DESIGN.md", "internal/README.md"} {
		for _, m := range cmdRef.FindAllStringSubmatch(read(path), -1) {
			if info, err := os.Stat("cmd/" + m[1]); err != nil || !info.IsDir() {
				t.Errorf("%s names %s, which is not a directory", path, m[0])
			}
		}
	}

	makeRef := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	for _, path := range docs {
		for _, m := range makeRef.FindAllStringSubmatch(read(path), -1) {
			if !targets[m[1]] {
				t.Errorf("%s quotes `make %s`, which the Makefile does not define", path, m[1])
			}
		}
	}

	ci := regexp.MustCompile(`(?m)^ci:(.*)$`).FindStringSubmatch(makefile)
	if ci == nil || len(strings.Fields(ci[1])) == 0 {
		t.Fatal("Makefile has no ci target with prerequisites")
	}
	for _, dep := range strings.Fields(ci[1]) {
		if !targets[dep] {
			t.Errorf("ci depends on %q, which the Makefile does not define", dep)
		}
	}
}

// TestDocsNameExistingFiles keeps the docs honest about files: every
// backticked path ending in .go, .md, .txt or .json that README, DESIGN,
// EXPERIMENTS and internal/README.md quote must exist, relative to the
// repository root or to the quoting document.
func TestDocsNameExistingFiles(t *testing.T) {
	fileRef := regexp.MustCompile("`([^`\\s]+\\.(?:go|md|txt|json))`")
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fileRef.FindAllStringSubmatch(string(data), -1) {
			if !exists(m[1]) && !exists(filepath.Join(filepath.Dir(doc), m[1])) {
				t.Errorf("%s quotes `%s`, which does not exist", doc, m[1])
			}
		}
	}
}

// TestDocsNameExistingTests keeps the docs honest about tests: every
// Test*, Benchmark* or Fuzz* name inside a backticked span resolves to a
// function declared in some _test.go file of the repository. A trailing
// `*` names a prefix (`BenchmarkAblation*`), a parenthesized group names
// alternatives (`BenchmarkComplete(Flat|Reference)`), and a package
// qualifier (`core.TestStreamEpochAuditClean`) must name the declaring
// package's directory.
func TestDocsNameExistingTests(t *testing.T) {
	// declared maps each test function name to the directories declaring it.
	declared := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = append(declared[fn.Name.Name], filepath.Base(filepath.Dir(path)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(pkg, name string, prefix bool) bool {
		for fn, dirs := range declared {
			if fn != name && !(prefix && strings.HasPrefix(fn, name)) {
				continue
			}
			if pkg == "" || slices.Contains(dirs, pkg) {
				return true
			}
		}
		return false
	}

	span := regexp.MustCompile("`[^`\n]+`")
	ref := regexp.MustCompile(`(?:\b([a-z][a-z0-9]*)\.)?\b((?:Test|Benchmark|Fuzz)(?:[A-Z0-9_][A-Za-z0-9_]*)?)(?:\(([A-Za-z0-9_|]+)\))?(\*)?`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(string(data), -1) {
			for _, m := range ref.FindAllStringSubmatch(code, -1) {
				pkg, base, group, prefix := m[1], m[2], m[3], m[4] == "*"
				names := []string{base}
				if group != "" {
					names = nil
					for _, alt := range strings.Split(group, "|") {
						names = append(names, base+alt)
					}
				}
				for _, name := range names {
					if !resolves(pkg, name, prefix) {
						t.Errorf("%s quotes `%s`, but no _test.go file declares %s", doc, m[0], name)
					}
				}
			}
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
