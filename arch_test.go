package cooper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// flightLogWriters is the one-writer rule's allowlist: the packages
// whose non-test code may call a method named Record or RecordIn, with
// the goroutine each records on. Every other package reaches the flight
// recorder only through these (fault injections, for one, are counted
// in the registry and never logged), so a same-seed run writes its
// events in one order whatever the scheduler does.
var flightLogWriters = map[string]string{
	"internal/telemetry":   "the recorder itself: Telemetry.RecordIn stamps and appends",
	"internal/market":      "the engine's epoch events, on the goroutine that clears",
	"internal/core":        "in-process epoch events, on the RunEpoch caller",
	"internal/shard":       "shard_matched and refinement_round, in shard order after the per-shard clears join",
	"internal/netproto":    "admission and reap events, on the Serve goroutine",
	"internal/coordinator": "batch_scheduled, on the driver loop",
	"cmd/cooperd":          "live-audit violations, from the ring's observer on the recording goroutine",
}

// flightLogWrites parses one Go source file and returns its calls to a
// method named Record or RecordIn, as "path:line:col: .Record", and the
// ones among them that break the one-writer rule: all of them when the
// file's package is not in flightLogWriters, none when it is.
func flightLogWrites(t *testing.T, path string, src any) (calls, violations []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Record" || sel.Sel.Name == "RecordIn") {
			calls = append(calls, fset.Position(call.Pos()).String()+": ."+sel.Sel.Name)
		}
		return true
	})
	if _, ok := flightLogWriters[filepath.ToSlash(filepath.Dir(path))]; ok {
		return calls, nil
	}
	return calls, calls
}

// TestFlightLogWriters pins the flight log's one-writer rule over every
// non-test file in the module (benchmark/, its own module, times the
// recorder in isolation and is not scanned). A violating fixture must be
// flagged, and every allowlisted package must still record, so the
// table cannot outlive the code it admits.
func TestFlightLogWriters(t *testing.T) {
	fixture := "package faults\n\nfunc (in *Injector) count(kind string) {\n\tin.events.Record(telemetry.Event{Kind: kind})\n}\n"
	if _, bad := flightLogWrites(t, "internal/faults/faults.go", fixture); len(bad) != 1 {
		t.Errorf("fixture recording from internal/faults: flagged %v, want one call", bad)
	}
	if _, bad := flightLogWrites(t, "internal/netproto/netproto.go", fixture); len(bad) != 0 {
		t.Errorf("fixture recording from internal/netproto: flagged %v, want none", bad)
	}

	recording := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		calls, bad := flightLogWrites(t, path, src)
		if len(calls) > 0 {
			recording[filepath.ToSlash(filepath.Dir(path))] = true
		}
		for _, v := range bad {
			t.Errorf("%s: a flight-log write outside the one-writer allowlist", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for pkg := range flightLogWriters {
		if !recording[pkg] {
			stale = append(stale, pkg)
		}
	}
	sort.Strings(stale)
	for _, pkg := range stale {
		t.Errorf("allowlisted %s no longer records; drop it from flightLogWriters", pkg)
	}
}
