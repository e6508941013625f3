package main

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

// TestE2RowTotalsMatchPaper pins the Table 1 reconstruction to the paper's
// row totals.
func TestE2RowTotalsMatchPaper(t *testing.T) {
	if cloud, ml, graph := table1Totals(); cloud != 8 || ml != 8 || graph != 4 {
		t.Fatalf("Table 1 totals drifted from the paper: cloud=%d ml=%d graph=%d, want 8/8/4", cloud, ml, graph)
	}
}

// TestExhibitsNameRealCode checks that every pkg.Ident the Figure 1 and
// Table 1 strings cite is a package-level declaration in internal/<pkg>, so
// the exhibits cannot credit the repository with code it does not have.
func TestExhibitsNameRealCode(t *testing.T) {
	var texts []string
	for _, era := range timeline {
		texts = append(texts, era.concepts...)
	}
	for _, row := range table1 {
		texts = append(texts, row.impl)
	}
	ref := regexp.MustCompile(`\b([a-z]+)\.([A-Z]\w*)`)
	decls := map[string]map[string]bool{}
	cited := 0
	for _, text := range texts {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			pkg, name := m[1], m[2]
			if decls[pkg] == nil {
				decls[pkg] = packageDecls(t, filepath.Join("..", "..", "internal", pkg))
			}
			if !decls[pkg][name] {
				t.Errorf("%q cites %s.%s, which internal/%s does not declare", text, pkg, name, pkg)
			}
			cited++
		}
	}
	if cited == 0 {
		t.Fatal("found no pkg.Ident citations to check")
	}
}

// packageDecls returns the names of the package-level declarations in the
// non-test Go files of dir.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("cited package: %v", err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}
