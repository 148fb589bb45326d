package tart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
			return nil
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods {
		m()
	}
	return decls, uses
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
