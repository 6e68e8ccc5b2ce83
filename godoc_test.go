package privascope_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesImportOnlyTheFacade is the gate on the package's Example
// functions. They are the walkthroughs a user outside this module copies, so
// a root test file that declares one imports privascope, the standard
// library and the case-study inputs (internal/casestudy and its
// casestudytest) and no other internal package, which such a user could not
// import.
func TestExamplesImportOnlyTheFacade(t *testing.T) {
	caseStudies := map[string]bool{
		"privascope/internal/casestudy":               true,
		"privascope/internal/casestudy/casestudytest": true,
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	examples := 0
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declared := 0
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				declared++
			}
		}
		if declared == 0 {
			continue
		}
		examples += declared
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "privascope/internal/") && !caseStudies[path] {
				t.Errorf("%s imports %s: a file of Examples imports only privascope, the standard library and the case-study inputs", name, path)
			}
		}
	}
	if examples == 0 {
		t.Error("no root test file declares an Example function")
	}
}

// TestGodocCompleteness is the documentation gate CI runs: every exported
// symbol of the public facade and of every internal/ package
// TestEveryNameHasAProductionCaller checks must carry a doc comment. The root
// privascope package is the documented surface external code builds against,
// and the internal packages are what its types alias and its callers read
// through it, so an undocumented export in any of them is treated as a build
// break, not a style nit.
func TestGodocCompleteness(t *testing.T) {
	dirs := []string{"."} // the root privascope package: facade + Engine
	for _, p := range loadModule(t).pkgs {
		if strings.HasPrefix(p.dir, "internal"+string(filepath.Separator)) && !p.testSupport {
			dirs = append(dirs, p.dir)
		}
	}
	for _, dir := range dirs {
		missing, err := undocumentedExports(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, m := range missing {
			t.Errorf("%s: %s is exported but has no doc comment", dir, m)
		}
	}
}

// undocumentedExports parses the package in dir (tests excluded) and returns
// a description of every exported top-level symbol without a doc comment. A
// grouped declaration's comment covers all of its specs, matching godoc's
// rendering.
func undocumentedExports(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	position := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedReceiver(d) && d.Doc == nil {
						missing = append(missing, fmt.Sprintf("func %s (%s)", d.Name.Name, position(d)))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, name := range specNames(spec) {
							if name.IsExported() && d.Doc == nil && specDoc(spec) == nil {
								missing = append(missing, fmt.Sprintf("%s %s (%s)", d.Tok, name.Name, position(spec)))
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// exportedReceiver reports whether a method's receiver type is exported
// (top-level functions count as exported receivers).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// specNames returns the named identifiers a declaration spec introduces.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	default:
		return nil
	}
}

// specDoc returns the spec-level doc comment, if any.
func specDoc(spec ast.Spec) *ast.CommentGroup {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		if s.Doc != nil {
			return s.Doc
		}
		return s.Comment
	case *ast.ValueSpec:
		if s.Doc != nil {
			return s.Doc
		}
		return s.Comment
	default:
		return nil
	}
}
