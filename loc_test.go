package cooper

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// locBudgetFile is the committed per-package code-size budget: one
// "<lines>  <package dir>" row per package, the format `make loc`
// prints, with "." for the module root.
const locBudgetFile = "testdata/loc_budget.txt"

// docBudgetFile is the committed byte budget of the prose docs: one
// "<bytes>  <file>" row per doc.
const docBudgetFile = "testdata/doc_budget.txt"

// readBudgets parses a budget file's "<count>  <name>" rows.
func readBudgets(t *testing.T, file string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	budgets := make(map[string]int)
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		n, err := strconv.Atoi(fields[0])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: malformed row %q", file, line)
		}
		budgets[fields[1]] = n
	}
	return budgets
}

// codeLines counts the package directories' code lines the way `make
// loc` does: every non-test .go file, less blank lines and lines that
// are only a // comment. The packages are the module's: directories
// holding non-test Go files, outside testdata, hidden or underscore
// directories and nested modules (benchmark/).
func codeLines(t *testing.T) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := 0
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if code := strings.TrimSpace(line); code != "" && !strings.HasPrefix(code, "//") {
				n++
			}
		}
		counts[filepath.Dir(path)] += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestCodeSizeBudget holds every package to its committed code-size
// budget (locBudgetFile), and README.md, DESIGN.md, EXPERIMENTS.md and
// internal/README.md to their byte budgets (docBudgetFile). A package
// over its budget fails, as does a package with no budget and a budget
// for a package that is gone; so does a doc over its budget. A budget
// goes up only with a CHANGES.md line naming the package or doc, the
// growth and the reason; a change that deletes code or prose lowers its
// budgets with it. The failure prints the current table.
func TestCodeSizeBudget(t *testing.T) {
	docBudgets := readBudgets(t, docBudgetFile)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "internal/README.md"} {
		budget, ok := docBudgets[doc]
		info, err := os.Stat(doc)
		switch {
		case err != nil:
			t.Error(err)
		case !ok:
			t.Errorf("%s (%d bytes) has no budget in %s", doc, info.Size(), docBudgetFile)
		case info.Size() > int64(budget):
			t.Errorf("%s has %d bytes, over its budget of %d", doc, info.Size(), budget)
		}
	}

	counts := codeLines(t)
	budgets := readBudgets(t, locBudgetFile)

	var table strings.Builder
	dirs := make([]string, 0, len(counts))
	for dir := range counts {
		dirs = append(dirs, dir)
	}
	slices.Sort(dirs)
	failed := false
	for _, dir := range dirs {
		fmt.Fprintf(&table, "%7d  %s\n", counts[dir], dir)
		switch budget, ok := budgets[dir]; {
		case !ok:
			t.Errorf("package %s (%d code lines) has no budget in %s", dir, counts[dir], locBudgetFile)
			failed = true
		case counts[dir] > budget:
			t.Errorf("package %s has %d code lines, over its budget of %d", dir, counts[dir], budget)
			failed = true
		}
	}
	for dir := range budgets {
		if _, ok := counts[dir]; !ok {
			t.Errorf("%s budgets package %s, which holds no code", locBudgetFile, dir)
			failed = true
		}
	}
	if failed {
		t.Logf("current counts:\n%s", table.String())
	}
}
