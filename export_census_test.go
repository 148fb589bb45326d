package tart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllow names the exported declarations under internal/ that only
// tests call, each with the reason a test needs it. Anything else that only
// tests reach is deleted, not listed here.
var exportAllow = map[string]string{
	"chaos.SenderProcessMain":            "the process-kill oracle re-executes its test binary as the sender; TestMain enters here",
	"checkpoint.FileStore.TornFallbacks": "store and durable-chain tests assert how many torn entries an open discarded",
	"checkpoint.Map.DirtyCount":          "capture tests assert which captures reset the dirty set",
	"checkpoint.Map.GobEncode":           "encoding/gob calls it when an auto-captured component struct holds a Map (TestMapGobInsideStruct)",
	"checkpoint.Map.GobDecode":           "encoding/gob calls it when an auto-captured component struct holds a Map (TestMapGobInsideStruct)",
	"engine.Engine.BufferedCount":        "shed and ack tests assert replay-buffer occupancy per wire",
	"silence.Governor.Promised":          "the governor's reference oracle compares per-wire promises",
	"silence.Governor.PendingCuriosity":  "the governor's reference oracle compares standing curiosity targets",
	"wal.FileLog.TruncatedBytes":         "WAL tests assert the torn tail an open truncated",
	"wal.Injector.CorruptInputs":         "arms a payload corruption; the time-travel bisect test is its only user",
	"wal.Injector.Corrupted":             "counts injected corruptions for the bisect test",
	"wal.Injector.FailAppendsENOSPC":     "arms an ENOSPC append failure that only WAL fault tests inject",
	"wal.Injector.ShortWrites":           "arms a torn append that only WAL fault tests inject",
	"wal.Injector.ShortWritten":          "counts injected torn appends for the WAL fault tests",
}

// span is the extent of a declaration in one file.
type span struct {
	file       string
	start, end token.Pos
}

// exportDecl is one exported top-level declaration under internal/: the
// identifier callers use, and the spans that are its own declaration (a
// type's spec and every method on it).
type exportDecl struct {
	name string
	own  []span
}

// exportCensus parses every non-test Go file of the root module and of
// benchmark/ and returns the exported funcs, types and methods declared
// under internal/, keyed "pkg.Name" or "pkg.Recv.Name", and every
// identifier position by name. Method receivers are not counted as uses of
// their type.
func exportCensus(t *testing.T) (map[string]*exportDecl, map[string][]span) {
	t.Helper()
	fset := token.NewFileSet()
	decls := make(map[string]*exportDecl)
	types := make(map[string]*exportDecl) // "pkgdir.Type" -> its decl
	uses := make(map[string][]span)
	var methods []func()
	parseProduction(t, fset, func(path string, file *ast.File) {
		recv := make(map[*ast.Ident]bool)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !recv[id] {
				uses[id.Name] = append(uses[id.Name], span{path, id.Pos(), id.End()})
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return
		}
		dir, pkg := filepath.Dir(path), file.Name.Name
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				own := span{path, d.Pos(), d.End()}
				if d.Recv == nil {
					if d.Name.IsExported() {
						decls[pkg+"."+d.Name.Name] = &exportDecl{name: d.Name.Name, own: []span{own}}
					}
					continue
				}
				typ := receiverType(d.Recv.List[0].Type)
				methods = append(methods, func() {
					if td := types[dir+"."+typ]; td != nil {
						td.own = append(td.own, own)
					}
				})
				if d.Name.IsExported() && ast.IsExported(typ) {
					decls[pkg+"."+typ+"."+d.Name.Name] = &exportDecl{name: d.Name.Name, own: []span{own}}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						td := &exportDecl{name: ts.Name.Name, own: []span{{path, ts.Pos(), ts.End()}}}
						decls[pkg+"."+ts.Name.Name] = td
						types[dir+"."+ts.Name.Name] = td
					}
				}
			}
		}
	})
	for _, m := range methods {
		m()
	}
	return decls, uses
}

// parseProduction parses every non-test Go file of the module and of
// benchmark/ and hands each to fn.
func parseProduction(t *testing.T, fset *token.FileSet, fn func(path string, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// used reports whether some identifier named d.name lies outside d's own
// declaration.
func (d *exportDecl) used(uses map[string][]span) bool {
	for _, u := range uses[d.name] {
		inside := false
		for _, o := range d.own {
			if u.file == o.file && u.start >= o.start && u.end <= o.end {
				inside = true
				break
			}
		}
		if !inside {
			return true
		}
	}
	return false
}

// TestExportCensus holds production code to what production runs: every
// exported func, type and method declared under internal/ is named by some
// non-test file of the module or of benchmark/, outside its own declaration,
// or is a test seam listed in exportAllow. An allowlisted name that
// production does call fails too, so the list cannot go stale.
func TestExportCensus(t *testing.T) {
	decls, uses := exportCensus(t)
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	var dead []string
	for key, d := range decls {
		_, allowed := exportAllow[key]
		switch used := d.used(uses); {
		case !used && !allowed:
			dead = append(dead, key)
		case used && allowed:
			t.Errorf("%s is allowlisted as test-only, but non-test code names it", key)
		}
	}
	for key := range exportAllow {
		if decls[key] == nil {
			t.Errorf("allowlisted %s is not an exported declaration under internal/", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: only tests reach it; delete it or list it in exportAllow with the reason a test needs it", key)
	}
}

// rootImport is the import path of the root package.
const rootImport = "repro"

// rootAllow names the exported root declarations that no file outside the
// root package reads, each with the reason a test or a kept API needs it.
// Anything else nothing outside reads is deleted, not listed here.
var rootAllow = map[string]string{
	"Cluster.Bisect":             "the programmatic bisect; /rewind?op=bisect and tartctl bisect reach the same inspector over HTTP, and TestBisectPinsSeededCorruption calls it",
	"Cluster.RewindRun":          "the programmatic reconstruction run; /rewind?op=state and tartctl rewind reach the same inspector over HTTP, but only a Go caller can pass watchpoints, which are predicates; TestStateWatchpoint and TestRewindCadence call it",
	"Cluster.RewindPoints":       "the programmatic list of rewind points; /rewind?op=points and tartctl rewind reach it over HTTP, and TestRewindMatchesLiveSnapshots and TestRewindCadence pick targets from it",
	"Cluster.SetSilenceStrategy": "the manual strategy switch of paper §II.G.4; TestDynamicSilenceStrategySwitch and TestManualSilenceSwitchSurvivesFailover drive it",
	"Cluster.SilenceConfigOf":    "the replica-consistency read of a governor's configuration; the failover tests compare it across Recover",
	"Snapshotter":                "the contract a component implements to own its checkpoint encoding; the runtime finds it by type assertion, so no caller names it",
	"DeltaSnapshotter":           "the contract a component implements for incremental checkpoints; the runtime finds it by type assertion, so no caller names it",
	"ErrSourceShed":              "what Source.Emit returns past WithShedLimit's bound; producers match it with errors.Is",
	"ErrRewindTooOld":            "what RewindRun returns before the oldest rewind point; TestRewindBeforeHistory matches it with errors.Is",
}

// rootUnit is one exported declaration of the root package the census
// counts: a func, a type, a method, a var, or a whole const group.
type rootUnit struct {
	names  []string // the identifiers it declares (every exported member of a const group)
	method bool
	decl   ast.Node // the part other exports can be named in: signature, type spec, var type or const group
}

// rootUnits parses the root package's non-test files and returns its
// exported declarations keyed "Name" or "Type.Method" (a const group under
// its first name), and the signatures of its knobs, which TestOptionCensus
// holds instead.
func rootUnits(t *testing.T) (map[string]*rootUnit, []ast.Node) {
	t.Helper()
	knobs := optionKnobs(t)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]*rootUnit)
	var knobSigs []ast.Node
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv != nil:
					if typ := receiverType(d.Recv.List[0].Type); ast.IsExported(typ) {
						units[typ+"."+d.Name.Name] = &rootUnit{names: []string{d.Name.Name}, method: true, decl: d.Type}
					}
				case knobs[d.Name.Name]:
					knobSigs = append(knobSigs, d.Type)
				default:
					units[d.Name.Name] = &rootUnit{names: []string{d.Name.Name}, decl: d.Type}
				}
			case *ast.GenDecl:
				var group []string
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							units[s.Name.Name] = &rootUnit{names: []string{s.Name.Name}, decl: s}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							switch {
							case !name.IsExported():
							case d.Tok == token.CONST:
								group = append(group, name.Name)
							default:
								units[name.Name] = &rootUnit{names: []string{name.Name}, decl: s.Type}
							}
						}
					}
				}
				if len(group) > 0 {
					units[group[0]] = &rootUnit{names: group, decl: d}
				}
			}
		}
	}
	return units, knobSigs
}

// rootReaders parses every non-test Go file of the module and of
// benchmark/ outside the root directory that imports the root package, and
// returns the root names those files select (tart.Name) and every selector
// name they use, which is how a method is matched.
func rootReaders(t *testing.T) (top, selectors map[string]bool) {
	t.Helper()
	top, selectors = make(map[string]bool), make(map[string]bool)
	parseProduction(t, token.NewFileSet(), func(path string, file *ast.File) {
		if filepath.Dir(path) == "." {
			return
		}
		local := ""
		for _, imp := range file.Imports {
			if imp.Path.Value == strconv.Quote(rootImport) {
				local = "tart"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selectors[sel.Sel.Name] = true
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					top[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	return top, selectors
}

// declRefs returns the unqualified identifiers a declaration names, leaving
// out the selected half of pkg.Name and the names of fields and parameters.
func declRefs(n ast.Node) []string {
	skip := make(map[*ast.Ident]bool)
	var refs []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			skip[x.Sel] = true
		case *ast.Field:
			for _, name := range x.Names {
				skip[name] = true
			}
		case *ast.Ident:
			if !skip[x] {
				refs = append(refs, x.Name)
			}
		}
		return true
	})
	return refs
}

// TestRootExportCensus holds the root package's public API to what its
// users read. An exported root declaration survives when a non-test file
// outside the root directory names it (a method by selector, in a file
// importing the root package), when the declaration of a surviving export
// or of a knob names it, or when rootAllow lists it with a reason. An
// allowlisted name that an outside file names fails, so the list cannot go
// stale. The README's API table lists every survivor, and names nothing
// else.
func TestRootExportCensus(t *testing.T) {
	units, knobSigs := rootUnits(t)
	top, selectors := rootReaders(t)
	if len(units) == 0 || len(top) == 0 {
		t.Fatal("no root exports or no outside readers found")
	}
	byName := make(map[string]string) // top-level name -> unit key
	for key, u := range units {
		if !u.method {
			for _, name := range u.names {
				byName[name] = key
			}
		}
	}
	live := make(map[string]bool)
	pending := knobSigs
	keep := func(key string) {
		if !live[key] {
			live[key] = true
			pending = append(pending, units[key].decl)
		}
	}
	for key, u := range units {
		read := false
		for _, name := range u.names {
			read = read || (u.method && selectors[name]) || (!u.method && top[name])
		}
		_, allowed := rootAllow[key]
		if read && allowed {
			t.Errorf("%s is in rootAllow, but a file outside the root package names it", key)
		}
		if read || allowed {
			keep(key)
		}
	}
	for len(pending) > 0 {
		n := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if n == nil {
			continue
		}
		for _, name := range declRefs(n) {
			if key, ok := byName[name]; ok {
				keep(key)
			}
		}
	}
	for key := range rootAllow {
		if units[key] == nil {
			t.Errorf("rootAllow entry %s is not an exported root declaration", key)
		}
	}
	var dead []string
	for key := range units {
		if !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: nothing outside the root package reads it; delete it or list it in rootAllow with the reason a test or a kept API needs it", key)
	}

	// The README's API table: each row names root exports in its first
	// cell and the methods of the first of them in its second; every other
	// backticked name is a root export too.
	listed := make(map[string]bool)
	backticked := regexp.MustCompile("`([^`]+)`")
	for _, cells := range readmeTable(t, "## API") {
		if len(cells) != 3 || !strings.HasPrefix(cells[0], "`") {
			continue
		}
		var names []string
		for _, m := range backticked.FindAllStringSubmatch(cells[0], -1) {
			names = append(names, m[1])
			if key, ok := byName[m[1]]; ok {
				listed[key] = true
			} else {
				t.Errorf("README API row %s: %s is not a root export", cells[0], m[1])
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			if key := names[0] + "." + m[1]; units[key] != nil {
				listed[key] = true
			} else {
				t.Errorf("README API row %s: %s is not one of its methods", cells[0], m[1])
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			if _, ok := byName[m[1]]; !ok && units[m[1]] == nil {
				t.Errorf("README API row %s: %s is not a root export", cells[0], m[1])
			}
		}
	}
	var unlisted []string
	for key := range live {
		if !listed[key] {
			unlisted = append(unlisted, key)
		}
	}
	sort.Strings(unlisted)
	for _, key := range unlisted {
		t.Errorf("%s has no place in the README API table", key)
	}
}

// TestDeterminismCoreLayering keeps the determinism core buildable without
// the observability stack: no non-test file of a core package imports
// internal/trace or a package under it. The scheduler, the engine and the
// TCP transport report through sched.Observer, engine.Observer and
// transport.Observer instead, which *trace.Metrics implements, and the
// time-travel sandbox runs its engines unobserved.
func TestDeterminismCoreLayering(t *testing.T) {
	core := make(map[string]bool)
	for _, p := range []string{"sched", "engine", "inspect", "silence", "wal", "checkpoint", "estimator", "msg", "vt", "topo", "stats", "transport"} {
		core[filepath.Join("internal", p)] = true
	}
	parseProduction(t, token.NewFileSet(), func(path string, file *ast.File) {
		if !core[filepath.Dir(path)] {
			return
		}
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/trace" || strings.HasPrefix(p, "repro/internal/trace/") {
				t.Errorf("%s imports %s: the determinism core must not depend on observability", path, p)
			}
		}
	})
}
