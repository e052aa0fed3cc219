package cooper

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it: each
// must exit zero and print exactly its golden, testdata/examples/NAME.golden.
// The examples are deterministic and run in well under a second each, so
// an example broken by a change to what it reads — a report field left
// empty, an output that moved — fails here rather than in a reader's
// hands. When a change to an example's output is intended, rewrite its
// golden with `go run ./examples/NAME > testdata/examples/NAME.golden`.
func TestExamplesRun(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build the examples with")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("%s printed\n%s\nwant\n%s", name, stdout.Bytes(), want)
			}
		})
	}
}
