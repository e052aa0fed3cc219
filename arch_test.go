package cooper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	for path, src := range goSources(t, false) {
		calls, bad := flightLogWrites(t, path, src)
		if len(calls) > 0 {
			recording[filepath.ToSlash(filepath.Dir(path))] = true
		}
		for _, v := range bad {
			t.Errorf("%s: a flight-log write outside the one-writer allowlist", v)
		}
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

// goSources reads the module's Go files, test files only when tests is
// set, keyed by slash-separated path. testdata, hidden directories and
// nested modules are skipped, except the nested modules named in also.
func goSources(t *testing.T, tests bool, also ...string) map[string][]byte {
	t.Helper()
	srcs := make(map[string][]byte)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			nested := exists(filepath.Join(path, "go.mod")) && !slices.Contains(also, filepath.ToSlash(path))
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || nested) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[filepath.ToSlash(path)] = src
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// globalRandAllowed lists the uses of math/rand's package-level
// generator that stay, keyed "path: rand.Name", each with its reason.
// That generator is seeded at random per process, so any other use
// makes a result depend on the run instead of on the seed.
var globalRandAllowed = map[string]string{
	"internal/netproto/dial.go: rand.Float64": "dial backoff jitter decides timing only and must decorrelate agent processes; tests pin DialOptions.Jitter",
}

// randOwnState are the math/rand names that do not touch the
// package-level generator: the constructors of explicitly seeded
// generators, and the types.
var randOwnState = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// globalRandUses parses one Go source file and returns its uses of a
// package-level math/rand function, as a call or as a value, each as
// "path:line:col" and "rand.Name". An identifier that resolves to a
// declaration in the file (a variable named rand, say) is not the
// package.
func globalRandUses(t *testing.T, path string, src any) (pos, names []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	imported := make(map[string]bool)
	for _, imp := range f.Imports {
		if imp.Path.Value == `"math/rand"` {
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] && x.Obj == nil && !randOwnState[sel.Sel.Name] {
			pos = append(pos, fset.Position(sel.Pos()).String())
			names = append(names, "rand."+sel.Sel.Name)
		}
		return true
	})
	return pos, names
}

// TestNoGlobalRand keeps every Go file of the module, tests and the
// benchmark harness included, off math/rand's package-level generator:
// randomness comes from a generator built from the run's seed. A
// violating fixture must be flagged, and an allowlist entry that
// matches no use is flagged as stale.
func TestNoGlobalRand(t *testing.T) {
	fixture := "package sim\n\nimport (\n\t\"math/rand\"\n\tmr \"math/rand\"\n)\n\n" +
		"func draw(seed int64, g *gen) {\n\tvar r *rand.Rand = rand.New(rand.NewSource(seed))\n" +
		"\t_ = r.Intn(2) + rand.Intn(3)\n\tf := rand.Float64\n\t_ = mr.Perm(4)\n\trand := g\n\t_ = rand.Intn(5)\n}\n"
	if _, names := globalRandUses(t, "internal/sim/sim.go", fixture); !slices.Equal(names, []string{"rand.Intn", "rand.Float64", "rand.Perm"}) {
		t.Errorf("fixture: flagged %v, want rand.Intn, rand.Float64 and rand.Perm", names)
	}

	used := make(map[string]bool)
	for path, src := range goSources(t, true, "benchmark") {
		pos, names := globalRandUses(t, path, src)
		for i, name := range names {
			key := path + ": " + name
			used[key] = true
			if _, ok := globalRandAllowed[key]; !ok {
				t.Errorf("%s: %s uses math/rand's package-level generator; draw from a seeded *rand.Rand", pos[i], name)
			}
		}
	}
	for key := range globalRandAllowed {
		if !used[key] {
			t.Errorf("allowlisted %s is no longer used; drop it from globalRandAllowed", key)
		}
	}
}

// reachRoots are what a user runs or links: every declaration under
// these directories, and in these facade files, roots the walk.
var reachRoots = []string{"cmd/", "examples/", "benchmark/", "cooper.go", "options.go"}

// implicitMethods are called through interfaces of the standard library
// or the runtime (fmt, errors, net/http, io, encoding/json, sort), not by
// name from this module's code.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// unreachedAllowed lists the declarations no root reaches that stay,
// each with its reason: the facade's API, or an oracle, fake or harness
// hook that tests use on other code. What an entry reaches stays with
// it. "dir.*" admits a whole package.
var unreachedAllowed = map[string]string{
	"internal/core.Framework.Closed":                     "facade API: cooper.Framework is core.Framework",
	"internal/faults.NewFakeClock":                       "test double: drives dial backoff and injected stalls without sleeping",
	"internal/faults.FakeClock.Advance":                  "test double: moves the fake clock",
	"internal/faults.FakeClock.Slept":                    "test double: reports the sleeps the fake clock absorbed",
	"internal/faults.Injector.Draws":                     "harness hook: the chaos soak compares per-connection fault draws across runs",
	"internal/faults.Plan.CrashesDue":                    "harness hook: chaos soaks execute scheduled crashes between epochs",
	"internal/faults.Plan.RecordCrash":                   "harness hook: chaos soaks count the crashes they execute",
	"internal/faults.Plan.RecordRejoin":                  "harness hook: chaos soaks count the rejoins they execute",
	"internal/netproto.Dial":                             "harness hook: tests dial agents with the default options",
	"internal/profiler.Profiler.ProfileStandalone":       "harness hook: tests build profile databases one run at a time",
	"internal/profiler.Profiler.ProfilePair":             "harness hook: tests build profile databases one run at a time",
	"internal/experiments.Figure10Result.MedianBlocking": "harness hook: the Figure 10 shape tests and BenchmarkAblation read it",
	"internal/matching.RoommateBlockingPairs":            "oracle: the O(n²) blocking-pair reference the class-bucket scan is held to",
	"internal/matching.CrossBlockingPairs":               "oracle: the bipartite blocking-pair reference for SMP",
	"internal/matching.Penalties.CountBlockingPairs":     "oracle: the pairwise blocking-pair count rematch.Assess and the auditor's count are graded against",
	"internal/matching.ValidateGroups":                   "oracle: validates hierarchical quad groupings in tests",
	"internal/matching.PrefsFromPenalties":               "oracle: builds preference lists for the matching algorithms' reference tests",
	"internal/game.CheckEfficiency":                      "oracle: Shapley values must sum to the grand coalition's value",
	"internal/game.FindBlockingCoalition":                "pins that coalition stability collapses to pair stability, the basis of the auditor's pair-only check",
	"internal/recommend.Predictor.WithReferenceKernel":   "oracle: the reference kernel the equivalence suite is held to",
}

// decl is one top-level declaration and the identifiers it mentions.
type decl struct {
	key  string // dir.Name, or dir.Recv.Name for a method
	root bool
	refs []string
}

// reachability parses srcs (slash path → source) and walks from the
// roots, then from the allowed entries, by identifier name: a
// declaration is reached once a reached one mentions its name, so a
// method is reached once anything reached calls a method by that name.
// A parenthesized const group is one declaration, so an enum stays
// whole. It returns the keys left unreached and the stale entries of
// allowed — those the roots reach or that name no declaration — both
// sorted.
func reachability(t *testing.T, srcs map[string][]byte, allowed map[string]string) (unreached, stale []string) {
	t.Helper()
	var decls []*decl
	byName := make(map[string][]*decl)
	for path, src := range srcs {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		root := false
		for _, r := range reachRoots {
			root = root || strings.HasPrefix(path, r)
		}
		// add records a declaration of the given names, a root when its
		// file is or implicit says so; what it mentions besides those
		// names are its references.
		add := func(key string, implicit bool, node ast.Node, names ...*ast.Ident) {
			d := &decl{key: dir + "." + key, root: root || implicit}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !slices.Contains(names, id) {
					d.refs = append(d.refs, id.Name)
				}
				return true
			})
			decls = append(decls, d)
			for _, name := range names {
				byName[name.Name] = append(byName[name.Name], d)
			}
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				name := gd.Name.Name
				if gd.Recv == nil {
					add(name, name == "init", gd, gd.Name)
					continue
				}
				recv := gd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				add(recv.(*ast.Ident).Name+"."+name, implicitMethods[name], gd, gd.Name)
			case *ast.GenDecl:
				if gd.Tok == token.CONST && gd.Lparen.IsValid() {
					var names []*ast.Ident
					for _, spec := range gd.Specs {
						names = append(names, spec.(*ast.ValueSpec).Names...)
					}
					add(names[0].Name, false, gd, names...)
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, false, s, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								add(n.Name, false, s, n)
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[*decl]bool)
	walk := func(from func(*decl) bool) {
		var queue []*decl
		for _, d := range decls {
			if !reached[d] && from(d) {
				reached[d] = true
				queue = append(queue, d)
			}
		}
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, name := range d.refs {
				for _, next := range byName[name] {
					if !reached[next] {
						reached[next] = true
						queue = append(queue, next)
					}
				}
			}
		}
	}
	// entry is the allowed entry admitting d: its own, or its package's.
	entry := func(d *decl) string {
		for _, e := range []string{d.key, d.key[:strings.Index(d.key, ".")] + ".*"} {
			if _, ok := allowed[e]; ok {
				return e
			}
		}
		return ""
	}
	walk(func(d *decl) bool { return d.root })
	used := make(map[string]bool)
	for _, d := range decls {
		if e := entry(d); e != "" && (!reached[d] || e != d.key) {
			used[e] = true
		}
	}
	walk(func(d *decl) bool { return entry(d) != "" })
	for _, d := range decls {
		if !reached[d] {
			unreached = append(unreached, d.key)
		}
	}
	for e := range allowed {
		if !used[e] {
			stale = append(stale, e)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale
}

// TestEveryDeclarationIsReached holds the non-test code to what a user
// runs: every top-level declaration must be reached from a command, an
// example, the benchmark harness or the facade, or be kept by an
// unreachedAllowed entry. A violating fixture must be flagged, and an
// entry the roots reach, or that names nothing, is flagged as stale.
func TestEveryDeclarationIsReached(t *testing.T) {
	fixture := map[string][]byte{
		"cmd/tool/main.go": []byte("package main\n\nfunc main() { lib.New().Run() }\n"),
		"internal/lib/lib.go": []byte("package lib\n\ntype T struct{}\n\nfunc New() *T { return &T{} }\n\n" +
			"func (*T) Run() {}\n\nfunc (*T) String() string { return \"\" }\n\nfunc (*T) Walk() {}\n\n" +
			"func Dead() { New().Walk() }\n\nfunc Kept() { helper() }\n\nfunc helper() {}\n"),
	}
	allowed := map[string]string{"internal/lib.Kept": "kept", "internal/lib.New": "reached", "internal/lib.Gone": "gone"}
	unreached, stale := reachability(t, fixture, allowed)
	if want := []string{"internal/lib.Dead", "internal/lib.T.Walk"}; !slices.Equal(unreached, want) {
		t.Errorf("fixture: unreached %v, want %v", unreached, want)
	}
	if want := []string{"internal/lib.Gone", "internal/lib.New"}; !slices.Equal(stale, want) {
		t.Errorf("fixture: stale entries %v, want %v", stale, want)
	}

	unreached, stale = reachability(t, goSources(t, false, "benchmark"), unreachedAllowed)
	for _, key := range unreached {
		t.Errorf("%s: no command, example, benchmark or facade reaches it; delete it or allowlist it with a reason", key)
	}
	for _, entry := range stale {
		t.Errorf("allowlisted %s is reached or names nothing; drop it from unreachedAllowed", entry)
	}
}
