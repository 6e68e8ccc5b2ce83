package privascope_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// productionCallerAllowlist names the declarations under internal/ that may
// stay without a non-test reference, each with the reason it stays. Keys are
// "<package path under internal/>.<Name>" or "….<Type>.<Method>". The list is
// capped: a name kept for a caller that might exist someday is dead code.
var productionCallerAllowlist = map[string]string{
	"lts.LTS.Always":              "ROADMAP 4(iii): the router's model check states its invariants with Always (and through it Exists)",
	"lts.LTS.ShortestTraceTo":     "ROADMAP 7(b): an alert's witness is the shortest trace to its transition",
	"anonymize.ClassIndex.Hits":   "cache counter the anonymize and pseudorisk tests read to prove a partition is built once",
	"anonymize.ClassIndex.Misses": "cache counter the anonymize and pseudorisk tests read to prove a partition is built once",
	"runtime.Monitor.Users":       "oracle: the runtime, cluster and facade tests read which users a monitor holds",
	"lts.LTS.Outgoing":            "oracle: the lts, core and runtime tests walk a state's transitions by ID",
	"accesscontrol.ACL.Explain":   "oracle: the accesscontrol and casestudy tests compare a policy's explanation text across the ways of writing it",
	"accesscontrol.RBAC.AddRole":  "library API: privascope.NewRBAC hands callers an RBAC to fill; the casestudy and scenario tests write policies with it",
	"accesscontrol.RBAC.Assign":   "library API: privascope.NewRBAC hands callers an RBAC to fill; the casestudy and scenario tests write policies with it",
	"accesscontrol.RBAC.ACL":      "library API: an RBAC-written policy becomes a model's Policy only through ACL; the casestudy and scenario tests call it",
}

// maxAllowlisted caps productionCallerAllowlist.
const maxAllowlisted = 15

// TestEveryNameHasAProductionCaller is the dead-code gate: every name declared
// in non-test code under internal/ — each exported func, type, var and const,
// and each func and method of any name — is referenced from some non-test
// code of the module (the facade, cmd/, examples/, benchmark/ or internal/,
// the declaring package included), or it is on productionCallerAllowlist.
// A reference is a go/types use outside the declaration itself. A method also
// counts as referenced when its receiver implements an interface holding a
// method of that name that non-test code can call: any method of an
// interface a standard-library package it imports declares (error,
// fmt.Stringer, http.Handler, …), and a module interface's method (explore.
// Expander's, …) when some non-test code uses that method. Packages that only
// _test.go files import are test support: they are not checked, and their
// references are test references, not production ones.
func TestEveryNameHasAProductionCaller(t *testing.T) {
	m := loadModule(t)
	used, callable := productionUses(m)

	var unreferenced []declaration
	checked := 0
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		if p.testSupport {
			t.Logf("%s: test support (only _test.go files import it), not checked", p.path)
			continue
		}
		checked++
		for _, d := range p.declarations() {
			if !used[d.obj] && !implementsUsedInterface(d.obj, callable) {
				unreferenced = append(unreferenced, d)
			}
		}
	}

	t.Logf("checked %d packages under internal/ against the uses in all %d packages of the module", checked, len(m.pkgs))
	if len(productionCallerAllowlist) > maxAllowlisted {
		t.Errorf("productionCallerAllowlist has %d entries; at most %d may stay without a production caller", len(productionCallerAllowlist), maxAllowlisted)
	}
	allowed := make(map[string]bool)
	for _, d := range unreferenced {
		if _, ok := productionCallerAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		t.Errorf("%s: %s %s: no non-test code references it (rule: every name under internal/ has a production caller); delete it, move it into the _test.go files that use it, or allowlist it with a reason", d.pos, d.kind, d.name)
	}
	for key := range productionCallerAllowlist {
		if !allowed[key] {
			t.Errorf("productionCallerAllowlist: %s is not an unreferenced declaration; drop the entry", key)
		}
	}
}

// declaration is one checked name.
type declaration struct {
	obj  types.Object
	kind string // "func", "method", "interface method", "type", "var" or "const"
	name string // as Go spells it: Name or (*Type).Name
	key  string // the productionCallerAllowlist key
	pos  string // file:line
}

// declarations lists the names p's non-test files declare that the gate
// checks: exported top-level types, vars and consts, every func and method
// apart from init, and the methods of exported interfaces.
func (p *modulePackage) declarations() []declaration {
	short := filepath.ToSlash(strings.TrimPrefix(p.dir, "internal"+string(filepath.Separator)))
	var out []declaration
	add := func(id *ast.Ident, kind, name, key string) {
		obj := p.info.Defs[id]
		if obj == nil {
			return
		}
		pos := p.fset.Position(id.Pos())
		out = append(out, declaration{obj: obj, kind: kind, name: name, key: short + "." + key,
			pos: fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				if d.Recv == nil {
					add(d.Name, "func", d.Name.Name, d.Name.Name)
					continue
				}
				recv, star := receiverName(d.Recv.List[0].Type)
				spelt := recv
				if star {
					spelt = "(*" + recv + ")"
				}
				add(d.Name, "method", spelt+"."+d.Name.Name, recv+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					for _, id := range specNames(spec) {
						if id.IsExported() {
							add(id, d.Tok.String(), id.Name, id.Name)
						}
					}
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, "interface method", ts.Name.Name+"."+id.Name, ts.Name.Name+"."+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the name of a method's receiver type and whether the
// receiver is a pointer.
func receiverName(expr ast.Expr) (name string, star bool) {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			star, expr = true, e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name, star
		default:
			return "", star
		}
	}
}

// productionUses returns every object production code of the module — its
// non-test files outside test-support packages — uses, outside the
// declaration that declares it (a method's uses of its own
// receiver type do not count either), and the interface methods that code
// can call: every method of the universe's error and of each exported
// interface of a standard-library package it imports, and each used method
// of a module interface.
func productionUses(m *module) (map[types.Object]bool, []*types.Func) {
	used := make(map[types.Object]bool)
	imported := make(map[*types.Package]bool)
	for _, p := range m.pkgs {
		if p.testSupport {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				self := declared(p.info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := p.info.Uses[id]
					switch o := obj.(type) {
					case nil:
						return true
					case *types.Func:
						obj = o.Origin()
					case *types.PkgName:
						imported[o.Imported()] = true
					}
					if !self[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	var callable []*types.Func
	addInterface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if i, ok := tn.Type().Underlying().(*types.Interface); ok && i.IsMethodSet() {
				for j := 0; j < i.NumMethods(); j++ {
					callable = append(callable, i.Method(j))
				}
			}
		}
	}
	addInterface(types.Universe.Lookup("error"))
	for pkg := range imported {
		if !m.owns(pkg) {
			for _, name := range pkg.Scope().Names() {
				if obj := pkg.Scope().Lookup(name); obj.Exported() {
					addInterface(obj)
				}
			}
		}
	}
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok && m.owns(fn.Pkg()) {
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				callable = append(callable, fn)
			}
		}
	}
	return used, callable
}

// declared returns the objects a top-level declaration declares, plus, for a
// method, its receiver's type name: uses inside it do not make them used.
func declared(info *types.Info, decl ast.Decl) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn, _ := info.Defs[d.Name].(*types.Func)
		if fn == nil {
			break
		}
		self[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				self[named.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			for _, id := range specNames(spec) {
				self[info.Defs[id]] = true
			}
		}
	}
	return self
}

// implementsUsedInterface reports whether obj is a method of a non-generic,
// non-interface named type that satisfies, by value or by pointer, the
// interface of one of the callable interface methods of the same name.
func implementsUsedInterface(obj types.Object, callable []*types.Func) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	named := namedOf(fn.Signature().Recv().Type())
	if named == nil || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return false
	}
	for _, im := range callable {
		if im.Name() != fn.Name() || !fn.Exported() && im.Pkg() != fn.Pkg() {
			continue
		}
		iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// namedOf returns the named type behind t or *t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// module is this repository's Go module, every package type-checked from its
// non-test files.
type module struct {
	path   string           // the module path, from go.mod
	pkgs   []*modulePackage // in dependency order
	byPath map[string]*modulePackage
	std    types.Importer // the standard library, from source
}

// modulePackage is one package of the module.
type modulePackage struct {
	path, dir   string
	fset        *token.FileSet
	files       []*ast.File
	imports     []string // of its non-test files
	testSupport bool     // imported by tests, unreachable from production code
	pkg         *types.Package
	info        *types.Info
}

var (
	moduleOnce   sync.Once
	loadedModule *module
	moduleErr    error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { loadedModule, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return loadedModule
}

// typeCheckModule parses every package of the module rooted at the working
// directory (build constraints applied, tests excluded) and type-checks them
// in dependency order with go/types: standard-library imports come from
// source, module imports from the packages already checked.
func typeCheckModule() (*module, error) {
	goMod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	modPath, ok := strings.CutPrefix(strings.SplitN(string(goMod), "\n", 2)[0], "module ")
	if !ok {
		return nil, errors.New("go.mod does not start with its module line")
	}
	fset := token.NewFileSet()
	m := &module{path: strings.TrimSpace(modPath), byPath: make(map[string]*modulePackage),
		std: importer.ForCompiler(fset, "source", nil)}
	testImported := make(map[string]bool)
	var found []*modulePackage
	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		p := &modulePackage{path: m.path, dir: dir, fset: fset, imports: bp.Imports}
		if dir != "." {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, path := range append(bp.TestImports, bp.XTestImports...) {
			testImported[path] = true
		}
		found = append(found, p)
		m.byPath[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Production code is every package outside internal/ and what its
	// non-test files import, transitively; a package tests import that
	// production code never reaches is test support.
	production := make(map[string]bool)
	var reach func(path string)
	reach = func(path string) {
		if p := m.byPath[path]; p != nil && !production[path] {
			production[path] = true
			for _, dep := range p.imports {
				reach(dep)
			}
		}
	}
	for _, p := range found {
		if p.dir != "internal" && !strings.HasPrefix(p.dir, "internal"+string(filepath.Separator)) {
			reach(p.path)
		}
	}
	for _, p := range found {
		p.testSupport = testImported[p.path] && !production[p.path]
	}

	state := make(map[*modulePackage]int) // 1 checking, 2 checked
	var check func(p *modulePackage) error
	check = func(p *modulePackage) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("%s: import cycle", p.path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, path := range p.imports {
			if dep := m.byPath[path]; dep != nil {
				if err := check(dep); err != nil {
					return err
				}
			}
		}
		p.info = &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %w", p.path, err)
		}
		p.pkg = pkg
		state[p] = 2
		m.pkgs = append(m.pkgs, p)
		return nil
	}
	sort.Slice(found, func(i, j int) bool { return found[i].path < found[j].path })
	for _, p := range found {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// owns reports whether pkg is one of the module's own packages.
func (m *module) owns(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == m.path || strings.HasPrefix(pkg.Path(), m.path+"/"))
}

// Import resolves an import for go/types: the module's own packages are the
// ones already checked, anything else is the standard library.
func (m *module) Import(path string) (*types.Package, error) {
	if p := m.byPath[path]; p != nil {
		if p.pkg == nil {
			return nil, fmt.Errorf("%s imported before it was checked", path)
		}
		return p.pkg, nil
	}
	return m.std.Import(path)
}
