package cooper

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingCommands keeps the docs and the Makefile honest
// about names: every ./cmd/<name> they mention is a directory, every
// `make <target>` README and DESIGN quote is a Makefile target, and every
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
	for _, path := range []string{"README.md", "DESIGN.md"} {
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "internal/README.md"} {
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

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
