package cooper

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// program is Go source type-checked: its files by slash path, its
// packages by import path, and the object the checker resolved each
// identifier to.
type program struct {
	fset  *token.FileSet
	files map[string]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load parses srcs (slash path → source) and type-checks them, one
// package per directory: the module root is package cooper and a
// directory d is cooper/d, which names benchmark/ by its own module's
// path too. Imports of the loaded packages resolve to them, and every
// other import to the compiler's export data, whose files one
// `go list -export -deps` call names, so nothing is fetched and the
// standard library is not type-checked from source.
func load(srcs map[string][]byte) (*program, error) {
	p := &program{fset: token.NewFileSet(), files: make(map[string]*ast.File), info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	pkgs := make(map[string][]*ast.File)
	for path, src := range srcs {
		f, err := parser.ParseFile(p.fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files[path] = f
		pkg := "cooper"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkg += "_test"
		}
		pkgs[pkg] = append(pkgs[pkg], f)
	}
	var external []string
	for _, f := range p.files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if _, ok := pkgs[path]; err == nil && !ok && !slices.Contains(external, path) {
				external = append(external, path)
			}
		}
	}
	exports := make(map[string]string)
	if len(external) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, external...)...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, exit.Stderr)
		}
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "\t")
			exports[path] = file
		}
	}
	fromExport := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	var errs []error
	checked := make(map[string]*types.Package)
	p.pkgs = checked
	conf := types.Config{Error: func(err error) { errs = append(errs, err) }}
	check := func(path string) *types.Package {
		if pkg, ok := checked[path]; ok {
			return pkg
		}
		pkg, _ := conf.Check(path, p.fset, pkgs[path], p.info)
		checked[path] = pkg
		return pkg
	}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if _, ok := pkgs[path]; ok {
			return check(path), nil
		}
		return fromExport.Import(path)
	})
	for path := range pkgs {
		check(path)
	}
	return p, errors.Join(errs...)
}

// moduleTree is the module's non-test code, the benchmark harness and
// the facade's Examples, type-checked once for every analyzer below.
var moduleTree = sync.OnceValues(func() (*program, error) {
	srcs, err := goSources(false, "benchmark")
	if err != nil {
		return nil, err
	}
	if srcs["example_test.go"], err = os.ReadFile("example_test.go"); err != nil {
		return nil, err
	}
	return load(srcs)
})

// flightLogWriters is the one-writer rule's allowlist: the packages
// whose non-test code may call (*telemetry.EventRing).Record or
// (*telemetry.Telemetry).RecordIn, with the goroutine each records on.
// Every other package reaches the flight recorder only through these
// (fault injections, for one, are counted in the registry and never
// logged), so a same-seed run writes its events in one order whatever
// the scheduler does.
var flightLogWriters = map[string]string{
	"internal/telemetry":   "the recorder itself: Telemetry.RecordIn stamps and appends",
	"internal/market":      "the engine's epoch events, on the goroutine that clears",
	"internal/core":        "in-process epoch events, on the RunEpoch caller",
	"internal/shard":       "shard_matched and refinement_round, in shard order after the per-shard clears join",
	"internal/netproto":    "admission and reap events, on the Serve goroutine",
	"internal/coordinator": "batch_scheduled, on the driver loop",
	"cmd/cooperd":          "live-audit violations, from the ring's observer on the recording goroutine",
}

// flightLogMethods are the flight log's two append methods, by
// types.Func.FullName.
var flightLogMethods = map[string]bool{
	"(*cooper/internal/telemetry.EventRing).Record":   true,
	"(*cooper/internal/telemetry.Telemetry).RecordIn": true,
}

// flightLogWrites returns the directories of p whose code uses a flight
// log append method, called or as a value, and the uses that break the
// one-writer rule, those outside flightLogWriters, each as
// "path:line:col: method", sorted. benchmark/, which times the recorder
// in isolation, is not scanned.
func flightLogWrites(p *program) (recording map[string]bool, violations []string) {
	recording = make(map[string]bool)
	for id, obj := range p.info.Uses {
		fn, ok := obj.(*types.Func)
		pos := p.fset.Position(id.Pos())
		if !ok || !flightLogMethods[fn.FullName()] || strings.HasPrefix(pos.Filename, "benchmark/") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(pos.Filename))
		recording[dir] = true
		if _, ok := flightLogWriters[dir]; !ok {
			violations = append(violations, pos.String()+": "+fn.FullName())
		}
	}
	sort.Strings(violations)
	return recording, violations
}

// TestFlightLogWriters pins the flight log's one-writer rule over every
// non-test file in the module. A fixture that records from a package off
// the allowlist must be flagged, a Record method of another type must
// not, and every allowlisted package must still record, so the table
// cannot outlive the code it admits.
func TestFlightLogWriters(t *testing.T) {
	caller := func(pkg string) []byte {
		return []byte("package " + pkg + "\n\nimport \"cooper/internal/telemetry\"\n\ntype tally struct{}\n\n" +
			"func (tally) Record(string) {}\n\nfunc count(events *telemetry.EventRing, t tally, kind string) {\n" +
			"\tt.Record(kind)\n\tevents.Record(telemetry.Event{Kind: kind})\n}\n")
	}
	fixture, err := load(map[string][]byte{
		"internal/telemetry/telemetry.go": []byte("package telemetry\n\ntype Event struct{ Kind string }\n\n" +
			"type EventRing struct{}\n\nfunc (*EventRing) Record(Event) int64 { return 0 }\n"),
		"internal/faults/faults.go":     caller("faults"),
		"internal/netproto/netproto.go": caller("netproto"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if recording, bad := flightLogWrites(fixture); len(bad) != 1 || !strings.HasPrefix(bad[0], "internal/faults/faults.go:") || !recording["internal/netproto"] {
		t.Errorf("fixture: flagged %v of the writes from %v, want the one in internal/faults", bad, recording)
	}

	tree, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	recording, bad := flightLogWrites(tree)
	for _, v := range bad {
		t.Errorf("%s: a flight-log write outside the one-writer allowlist", v)
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
func goSources(tests bool, also ...string) (map[string][]byte, error) {
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
	return srcs, err
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

	srcs, err := goSources(true, "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for path, src := range srcs {
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

// reachRoots are what a user runs or reads: every declaration under
// these directories, and in the facade's runnable Examples, roots the
// walk. A facade export is API only as far as one of them uses it.
var reachRoots = []string{"cmd/", "examples/", "benchmark/", "example_test.go"}

// implicitMethods are called through interfaces of the standard library
// or the runtime (fmt, errors, net/http, io, encoding/json, sort,
// container/heap), not from this module's code: a reached type's method
// by one of these names is reached.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// unreachedAllowed lists the declarations no root reaches that stay,
// each with its reason: a facade alias naming a type that reached API
// hands out, or an oracle, fake or harness hook that tests use on other
// code. What an entry reaches stays with it. "dir.*" admits a whole
// package; the facade's directory is "cooper".
var unreachedAllowed = map[string]string{
	"cooper.Recommendation":                              "names the element type EpochReport.Recommendations returns",
	"cooper.RematchSummary":                              "names the type of an EpochReport field",
	"cooper.TelemetrySnapshot":                           "names the type Framework.Snapshot returns",
	"cooper.DriverSummary":                               "names the type Driver.Run returns",
	"cooper.TaskModel":                                   "names the type of the Job.Model field",
	"cooper.MetricsRegistry":                             "names the type of the Telemetry.Metrics field",
	"internal/faults.realClock.Now":                      "test seam: Clock's reading, which tests take through the interface",
	"internal/faults.FakeClock.Now":                      "test seam: Clock's reading, which tests take through the interface",
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

// decl is one top-level declaration and the objects it uses.
type decl struct {
	key  string          // dir.Name, or dir.Recv.Name for a method
	typ  *types.TypeName // the type a type declaration declares
	root bool
	uses []types.Object
}

// reachability walks p from the roots, then from the allowed entries,
// over the objects each declaration uses as the type checker resolved
// them: a declaration is reached once a reached one uses what it
// declares. A method is also reached when its type is reached and
// reached code uses an interface method it implements, or when its name
// is in implicitMethods. A parenthesized const group is one
// declaration, so an enum stays whole. It returns the keys left
// unreached and the stale entries of allowed — those the roots reach or
// that name no declaration — both sorted.
func reachability(p *program, allowed map[string]string) (unreached, stale []string) {
	var decls []*decl
	declOf := make(map[types.Object]*decl)
	for path, f := range p.files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "cooper"
		}
		root := false
		for _, r := range reachRoots {
			root = root || strings.HasPrefix(path, r)
		}
		// add records a declaration of the given names, a root when its
		// file is or implicit says so, and every object its node uses.
		add := func(key string, implicit bool, node ast.Node, names ...*ast.Ident) *decl {
			d := &decl{key: dir + "." + key, root: root || implicit}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
					obj := p.info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					d.uses = append(d.uses, obj)
				}
				return true
			})
			decls = append(decls, d)
			for _, name := range names {
				declOf[p.info.Defs[name]] = d
			}
			return d
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
				add(recv.(*ast.Ident).Name+"."+name, false, gd, gd.Name)
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
						d := add(s.Name.Name, false, s, s.Name)
						d.typ, _ = p.info.Defs[s.Name].(*types.TypeName)
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
	var queue []*decl
	reach := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	// called holds the interface methods reached code uses.
	called := make(map[*types.Func]bool)
	method := func(t types.Type, pkg *types.Package, name string) *decl {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		return declOf[obj]
	}
	walk := func(from func(*decl) bool) {
		for _, d := range decls {
			if from(d) {
				reach(d)
			}
		}
		for len(queue) > 0 {
			for len(queue) > 0 {
				d := queue[0]
				queue = queue[1:]
				for _, obj := range d.uses {
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[fn] = true
						}
					}
					reach(declOf[obj])
				}
			}
			for _, d := range decls {
				if !reached[d] || d.typ == nil || types.IsInterface(d.typ.Type()) {
					continue
				}
				ptr := types.NewPointer(d.typ.Type())
				for fn := range called {
					iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
					if types.Implements(ptr, iface) {
						reach(method(ptr, fn.Pkg(), fn.Name()))
					}
				}
				for name := range implicitMethods {
					reach(method(ptr, nil, name))
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
// runs or reads: every top-level declaration must be reached from a
// command, an example program, the benchmark harness or a facade
// Example, or be kept by an unreachedAllowed entry. A violating fixture
// must be flagged, a dead method that shares a reached function's name
// and a facade export no Example calls among it; its Example file, an
// external _test package beside the facade, roots what it calls and
// nothing else. An entry the roots reach, or that names nothing, is
// flagged as stale.
func TestEveryDeclarationIsReached(t *testing.T) {
	fixture, err := load(map[string][]byte{
		"cmd/tool/main.go": []byte("package main\n\nimport \"cooper/internal/lib\"\n\n" +
			"func main() {\n\tlib.New().Run()\n\tlib.ForEach()\n\tlib.Step(lib.New())\n}\n"),
		"internal/lib/lib.go": []byte("package lib\n\ntype Stepper interface{ Step() }\n\ntype T struct{}\n\ntype U struct{}\n\n" +
			"func New() *T { return &T{} }\n\nfunc (*T) Run() {}\n\nfunc (*T) Step() {}\n\nfunc (U) Step() {}\n\n" +
			"func (*T) String() string { return \"\" }\n\nfunc (*T) Walk() {}\n\nfunc (*T) ForEach() {}\n\nfunc ForEach() {}\n\n" +
			"func Step(s Stepper) { s.Step() }\n\nfunc Dead() { New().Walk() }\n\nfunc Kept() { helper() }\n\nfunc helper() {}\n\n" +
			"func Shown() {}\n\nfunc Hidden() {}\n"),
		"facade.go": []byte("package cooper\n\nimport \"cooper/internal/lib\"\n\n" +
			"func Show() { lib.Shown() }\n\nfunc Hide() { lib.Hidden() }\n"),
		"example_test.go": []byte("package cooper_test\n\nimport \"cooper\"\n\nfunc ExampleShow() { cooper.Show() }\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{"internal/lib.Kept": "kept", "internal/lib.New": "reached", "internal/lib.Gone": "gone"}
	unreached, stale := reachability(fixture, allowed)
	if want := []string{"cooper.Hide", "internal/lib.Dead", "internal/lib.Hidden", "internal/lib.T.ForEach", "internal/lib.T.Walk", "internal/lib.U", "internal/lib.U.Step"}; !slices.Equal(unreached, want) {
		t.Errorf("fixture: unreached %v, want %v", unreached, want)
	}
	if want := []string{"internal/lib.Gone", "internal/lib.New"}; !slices.Equal(stale, want) {
		t.Errorf("fixture: stale entries %v, want %v", stale, want)
	}

	tree, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale = reachability(tree, unreachedAllowed)
	for _, key := range unreached {
		t.Errorf("%s: no command, example program, benchmark or facade Example reaches it; delete it or allowlist it with a reason", key)
	}
	for _, entry := range stale {
		t.Errorf("allowlisted %s is reached or names nothing; drop it from unreachedAllowed", entry)
	}
}

// telemetryHandles name the telemetry types whose values carry one
// run's metrics, spans or events.
var telemetryHandles = map[string]bool{"Registry": true, "Telemetry": true, "EventRing": true}

// holdsTelemetry reports whether a value of type t holds a telemetry
// handle: one of telemetryHandles' types, directly or through a pointer,
// a slice, an array, a map, a channel or a struct field, atomic.Pointer's
// included. seen stops the walk on recursive types.
func holdsTelemetry(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "cooper/internal/telemetry" && telemetryHandles[obj.Name()] ||
			holdsTelemetry(t.Underlying(), seen)
	case *types.Pointer:
		return holdsTelemetry(t.Elem(), seen)
	case *types.Slice:
		return holdsTelemetry(t.Elem(), seen)
	case *types.Array:
		return holdsTelemetry(t.Elem(), seen)
	case *types.Chan:
		return holdsTelemetry(t.Elem(), seen)
	case *types.Map:
		return holdsTelemetry(t.Key(), seen) || holdsTelemetry(t.Elem(), seen)
	case *types.Struct:
		for i := range t.NumFields() {
			if holdsTelemetry(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// telemetryGlobals returns p's package-level variables outside
// internal/telemetry whose type holds a telemetry handle, each as
// "path:line:col: name", sorted.
func telemetryGlobals(p *program) []string {
	var globals []string
	for path, pkg := range p.pkgs {
		if path == "cooper/internal/telemetry" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if v, ok := pkg.Scope().Lookup(name).(*types.Var); ok && holdsTelemetry(v.Type(), make(map[types.Type]bool)) {
				globals = append(globals, p.fset.Position(v.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(globals)
	return globals
}

// TestNoPackageTelemetryHandles: telemetry travels with the run that
// owns it, never through a package-level variable, so two Frameworks in
// one process cannot count into each other's registry. A fixture's
// handles held directly, through atomic.Pointer, a slice, a map and a
// struct are flagged; a local, a type's field and the telemetry
// package's own variables are not.
func TestNoPackageTelemetryHandles(t *testing.T) {
	fixture, err := load(map[string][]byte{
		"internal/telemetry/telemetry.go": []byte("package telemetry\n\ntype Registry struct{}\n\ntype Telemetry struct{ r *Registry }\n\n" +
			"type EventRing struct{}\n\ntype Snapshot struct{ Counters map[string]int64 }\n\nvar Default = &Registry{}\n"),
		"internal/arch/arch.go": []byte("package arch\n\nimport (\n\t\"sync/atomic\"\n\n\t\"cooper/internal/telemetry\"\n)\n\n" +
			"var sink atomic.Pointer[telemetry.Registry]\n\nvar direct *telemetry.Telemetry\n\n" +
			"var rings []*telemetry.EventRing\n\nvar byName map[string]struct{ t *telemetry.Telemetry }\n\n" +
			"var last telemetry.Snapshot\n\nvar calls int\n\ntype solver struct{ reg *telemetry.Registry }\n\n" +
			"func solve() { var r *telemetry.Registry; _ = solver{reg: r} }\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, g := range telemetryGlobals(fixture) {
		names = append(names, g[strings.LastIndex(g, " ")+1:])
	}
	slices.Sort(names)
	if want := []string{"byName", "direct", "rings", "sink"}; !slices.Equal(names, want) {
		t.Errorf("fixture: flagged %v, want %v", names, want)
	}

	tree, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range telemetryGlobals(tree) {
		t.Errorf("%s: a package-level telemetry handle; pass the run's telemetry in instead", g)
	}
}

// confinement keeps a construct in non-test code under internal/ to the
// packages, or single files, of an allowlist; cmd/ and benchmark/ are
// not scanned.
type confinement struct {
	what    string                            // the construct, for messages
	allowed map[string]string                 // package dir or file path → reason
	match   func(p *program, n ast.Node) bool // reports whether n is the construct
}

// sites returns the allowlist entries p's matches fall under, and the
// matches outside the allowlist as "path:line:col", sorted. A match
// falls under its file's entry when the file is listed, else under its
// package's.
func (c confinement) sites(p *program) (hit map[string]bool, violations []string) {
	hit = make(map[string]bool)
	for path, f := range p.files {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		key := path
		if _, ok := c.allowed[key]; !ok {
			key = filepath.ToSlash(filepath.Dir(path))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || !c.match(p, n) {
				return true
			}
			if _, ok := c.allowed[key]; ok {
				hit[key] = true
			} else {
				violations = append(violations, p.fset.Position(n.Pos()).String())
			}
			return true
		})
	}
	sort.Strings(violations)
	return hit, violations
}

// check runs c over the module tree: every match outside the allowlist
// fails, and so does an entry that no longer matches anything.
func (c confinement) check(t *testing.T) {
	t.Helper()
	tree, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	hit, bad := c.sites(tree)
	for _, v := range bad {
		t.Errorf("%s: %s outside the allowlist", v, c.what)
	}
	for entry := range c.allowed {
		if !hit[entry] {
			t.Errorf("allowlisted %s no longer has %s; drop its entry", entry, c.what)
		}
	}
}

// goStatements confines goroutines to the layers that own concurrency:
// the engine and algorithm packages run on their caller's goroutine, so
// a result cannot depend on the scheduler.
var goStatements = confinement{
	what: "a go statement",
	allowed: map[string]string{
		"internal/parallel":  "the deterministic fan-out: each worker writes only its own slots",
		"internal/netproto":  "the accept loop and one goroutine per connection",
		"internal/telemetry": "the runtime sampler's ticker",
		"internal/agent":     "Exchange, the one-goroutine-per-agent reference protocol the benchmark times; ROADMAP item 6(c) deletes it",
	},
	match: func(_ *program, n ast.Node) bool {
		_, ok := n.(*ast.GoStmt)
		return ok
	},
}

// wallClockReads confines time.Now and time.Since, called or as a value,
// to transport and observability: below them a result depends on the
// seed, never on when it ran, and faults reads time through its Clock.
var wallClockReads = confinement{
	what: "a wall-clock read",
	allowed: map[string]string{
		"internal/faults/clock.go": "RealClock, the process clock behind faults.Clock",
		"internal/netproto":        "connection deadlines and admission queueing latency",
		"internal/telemetry":       "span durations and flight-log timestamps",
	},
	match: func(p *program, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		fn, ok := p.info.Uses[id].(*types.Func)
		return ok && (fn.FullName() == "time.Now" || fn.FullName() == "time.Since")
	},
}

// TestGoStatementsConfined: a go statement in an engine package is
// flagged, one in an allowlisted package or outside internal/ is not,
// and the module keeps its goroutines where goStatements admits them.
func TestGoStatementsConfined(t *testing.T) {
	spawn := func(pkg string) []byte {
		return []byte("package " + pkg + "\n\nfunc run(f func()) {\n\tgo f()\n\tf()\n}\n")
	}
	fixture, err := load(map[string][]byte{
		"internal/parallel/parallel.go": spawn("parallel"),
		"internal/market/market.go":     spawn("market"),
		"cmd/tool/main.go":              []byte("package main\n\nfunc main() {\n\tgo main()\n}\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit, bad := goStatements.sites(fixture); len(bad) != 1 || !strings.HasPrefix(bad[0], "internal/market/market.go:4:") || !hit["internal/parallel"] {
		t.Errorf("fixture: flagged %v with entries %v hit, want the go statement in internal/market", bad, hit)
	}
	goStatements.check(t)
}

// TestWallClockConfined: time.Now called or taken as a value and
// time.Since are flagged outside the allowlist, a file entry admits
// only its file, and a method named Now is not the clock.
func TestWallClockConfined(t *testing.T) {
	fixture, err := load(map[string][]byte{
		"internal/faults/clock.go": []byte("package faults\n\nimport \"time\"\n\n" +
			"func now() time.Time { return time.Now() }\n"),
		"internal/faults/plan.go": []byte("package faults\n\nimport \"time\"\n\n" +
			"func since(t time.Time) time.Duration { return time.Since(t) }\n"),
		"internal/market/market.go": []byte("package market\n\nimport \"time\"\n\n" +
			"type clock struct{}\n\nfunc (clock) Now() int { return 0 }\n\n" +
			"func stamp(c clock) (func() time.Time, int) { return time.Now, c.Now() }\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hit, bad := wallClockReads.sites(fixture)
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "internal/faults/plan.go:") || !strings.HasPrefix(bad[1], "internal/market/market.go:") || !hit["internal/faults/clock.go"] {
		t.Errorf("fixture: flagged %v with entries %v hit, want one read each in plan.go and market.go", bad, hit)
	}
	wallClockReads.check(t)
}
