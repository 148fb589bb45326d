package tart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// optionStructs are the option structs whose exported fields are knobs.
var optionStructs = []string{"SupervisorConfig", "TimeTravel"}

// optionKnobs parses the package's non-test files and returns every knob:
// each exported function returning a ClusterOption or ComponentOption, and
// each exported field of the option structs as "Struct.Field".
func optionKnobs(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	isStruct := make(map[string]bool)
	for _, name := range optionStructs {
		isStruct[name] = true
	}
	knobs := make(map[string]bool)
	found := make(map[string]bool)
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
				if d.Recv != nil || !d.Name.IsExported() || d.Type.Results == nil || len(d.Type.Results.List) != 1 {
					continue
				}
				if id, ok := d.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "ClusterOption" || id.Name == "ComponentOption") {
					knobs[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !isStruct[ts.Name.Name] {
						continue
					}
					found[ts.Name.Name] = true
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								knobs[ts.Name.Name+"."+name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	for _, name := range optionStructs {
		if !found[name] {
			t.Fatalf("option struct %s not found in the package's files", name)
		}
	}
	return knobs
}

// setsKnob reports whether the Go source src sets knob. A function knob is
// set by naming it; a "Struct.Field" knob only by a composite literal of
// Struct (or pkg.Struct) that has a Field key, so a file setting a same-named
// field of another struct does not count.
func setsKnob(t *testing.T, path string, src []byte, knob string) bool {
	t.Helper()
	dot := strings.LastIndex(knob, ".")
	if dot < 0 {
		return regexp.MustCompile(`\b` + knob + `\b`).Match(src)
	}
	typ, field := knob[:dot], knob[dot+1:]
	file, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := false
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || set {
			return !set
		}
		name := ""
		switch ty := lit.Type.(type) {
		case *ast.Ident:
			name = ty.Name
		case *ast.SelectorExpr:
			name = ty.Sel.Name
		}
		if name != typ {
			return true
		}
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
					set = true
				}
			}
		}
		return !set
	})
	return set
}

// TestOptionCensus holds the README's *Options* table and the package's
// knobs to the same list: every knob has a row, every row names a knob, and
// every file a row says sets the knob contains its name. A knob set only by
// tests must say, beside the files, what behaviour only that value reaches.
func TestOptionCensus(t *testing.T) {
	knobs := optionKnobs(t)
	if len(knobs) == 0 {
		t.Fatal("no knobs found")
	}
	goFile := regexp.MustCompile("`([^`]+\\.go)`")
	rows := make(map[string]bool)
	for _, cells := range readmeTable(t, "## Options") {
		if len(cells) != 3 || !strings.HasPrefix(cells[0], "`") {
			continue
		}
		knob := strings.Trim(cells[0], "`")
		rows[knob] = true
		if !knobs[knob] {
			t.Errorf("README Options row %s names no knob", knob)
			continue
		}
		setBy := goFile.FindAllStringSubmatch(cells[2], -1)
		if len(setBy) == 0 {
			t.Errorf("README Options row %s names no file that sets it", knob)
		}
		testsOnly := true
		for _, m := range setBy {
			src, err := os.ReadFile(m[1])
			if err != nil {
				t.Errorf("README Options row %s: %v", knob, err)
				continue
			}
			if !setsKnob(t, m[1], src, knob) {
				t.Errorf("README Options row %s: %s does not set it", knob, m[1])
			}
			testsOnly = testsOnly && strings.HasSuffix(m[1], "_test.go")
		}
		if why := strings.Trim(goFile.ReplaceAllString(cells[2], ""), " ,:"); testsOnly && len(why) < 20 {
			t.Errorf("README Options row %s: set only by tests, but says nothing of what only that value reaches", knob)
		}
	}
	for knob := range knobs {
		if !rows[knob] {
			t.Errorf("%s has no row in the README Options table", knob)
		}
	}
}
