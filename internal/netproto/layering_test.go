package netproto

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestTransportImportsNoAlgorithms pins the layering: netproto is
// transport — sessions, framing, deadlines, reaping — and reaches the
// matching algorithms only through internal/market. Importing a policy
// driver, the churn engine or the matrix expansion here would be the
// start of a second orchestrator.
func TestTransportImportsNoAlgorithms(t *testing.T) {
	forbidden := []string{"cooper/internal/shard", "cooper/internal/rematch", "cooper/internal/profiler"}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, bad := range forbidden {
				if path == bad {
					t.Errorf("%s imports %s; go through internal/market", f.Name(), bad)
				}
			}
		}
	}
}
