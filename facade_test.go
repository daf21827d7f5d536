package easig_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeCallers are the directories whose programs the facade serves
// (doc.go's rule); fic, sigmond and the benchmark import the internal
// packages instead.
var facadeCallers = []string{"examples", "cmd/arrest", "cmd/sigmon"}

// TestFacadeNamesHaveCallers keeps the facade to what its callers use.
// Every exported name of this package must be referenced as easig.Name
// by a non-test file of a facade caller, be a type in the signature of
// a referenced func, or share a const block with a referenced name.
func TestFacadeNamesHaveCallers(t *testing.T) {
	used := facadeReferences(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	var names []string
	for _, f := range pkgs["easig"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				names = append(names, d.Name.Name)
				if used[d.Name.Name] {
					covered[d.Name.Name] = true
					ast.Inspect(d.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							covered[id.Name] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				var block []string
				blockUsed := false
				for _, spec := range d.Specs {
					var ids []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						if !id.IsExported() {
							continue
						}
						names = append(names, id.Name)
						block = append(block, id.Name)
						if used[id.Name] {
							covered[id.Name] = true
							blockUsed = true
						}
					}
				}
				if d.Tok == token.CONST && blockUsed {
					for _, name := range block {
						covered[name] = true
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported facade names found")
	}
	var orphans []string
	for _, name := range names {
		if !covered[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("facade names without a caller in %v: %s", facadeCallers, strings.Join(orphans, ", "))
	}
}

// facadeReferences returns the names the facade callers' non-test files
// select from the easig package.
func facadeReferences(t *testing.T) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, dir := range facadeCallers {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "easig" {
					local = "easig"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(used) == 0 {
		t.Fatal("no easig references found in the facade callers")
	}
	return used
}
