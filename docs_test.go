package cooper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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

// goTestFlags are the go test flags the docs may quote in a command.
var goTestFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true, "cpu": true,
	"fuzz": true, "fuzztime": true, "race": true, "run": true, "shuffle": true,
	"timeout": true, "v": true,
}

// flagRegistrations are the flag.FlagSet methods that define a flag.
var flagRegistrations = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true,
}

// TestDocsNameRegisteredFlags keeps the docs honest about flags: every
// -flag inside a backticked span of README, DESIGN, EXPERIMENTS and
// internal/README.md is registered in cmd/ or internal/simcli, or is a
// go test flag. A registration is a flag.X or fs.X call (X in
// flagRegistrations) whose first string-literal argument is the name.
func TestDocsNameRegisteredFlags(t *testing.T) {
	registered := make(map[string]bool)
	for _, root := range []string{"cmd", "internal/simcli"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagRegistrations[sel.Sel.Name] {
					return true
				}
				var recv string
				switch x := sel.X.(type) {
				case *ast.Ident:
					recv = x.Name
				case *ast.SelectorExpr:
					recv = x.Sel.Name
				}
				if recv != "flag" && recv != "fs" {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						registered[name] = true
						break
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !registered["shards"] || !registered["metrics"] {
		t.Fatalf("found no -shards or -metrics registration among %v", registered)
	}

	fenced := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`[^`]+`")
	flagRef := regexp.MustCompile(`(?:^|[\s(/\[])--?([a-z][a-z0-9-]*)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(fenced.ReplaceAllString(string(data), ""), -1) {
			for _, m := range flagRef.FindAllStringSubmatch(code[1:len(code)-1], -1) {
				if !registered[m[1]] && !goTestFlags[m[1]] {
					t.Errorf("%s quotes -%s in %s, which no command registers", doc, m[1], code)
				}
			}
		}
	}
}

// undefinedFacadeNames returns the `cooper.Name` references inside
// fenced blocks and backticked spans of text that do not resolve in the
// facade's scope, and the `cooper.Type.Member` ones whose member is no
// field or method of the type.
func undefinedFacadeNames(scope *types.Scope, text string) []string {
	span := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	ref := regexp.MustCompile(`\bcooper\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	var bad []string
	for _, code := range span.FindAllString(text, -1) {
		for _, m := range ref.FindAllStringSubmatch(code, -1) {
			obj := scope.Lookup(m[1])
			if _, isType := obj.(*types.TypeName); isType && m[2] != "" {
				obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), m[2])
			}
			if obj == nil {
				bad = append(bad, m[0])
			}
		}
	}
	return bad
}

// TestDocsNameFacadeAPI keeps the docs honest about the facade: every
// `cooper.Name` that README, DESIGN, EXPERIMENTS and internal/README.md
// quote or show in a code block resolves in the type-checked cooper package, so a deleted export
// fails here. docs/prNN-*.md are history and are not checked.
func TestDocsNameFacadeAPI(t *testing.T) {
	tree, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	scope := tree.pkgs["cooper"].Scope()
	fixture := "`cooper.New(cooper.WithSeed(1))`, `cooper.NewContext`, `cooper.Framework.Close()`, `cooper.Framework.Closed`, " +
		"cooper.PolicyByName\n```go\nf, _ := cooper.New(cooper.WithConfig(cfg))\n```\n"
	want := []string{"cooper.NewContext", "cooper.Framework.Closed", "cooper.WithConfig"}
	if bad := undefinedFacadeNames(scope, fixture); !slices.Equal(bad, want) {
		t.Errorf("fixture: flagged %v, want %v", bad, want)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range undefinedFacadeNames(scope, string(data)) {
			t.Errorf("%s quotes `%s`, which the cooper package does not declare", doc, name)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
