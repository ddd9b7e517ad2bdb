// Package testonly keeps test-only API out of product packages: an
// exported function, method of an exported type, type or package-level
// var that no non-test file in the module refers to is dead weight the
// simulator carries only so a test can call it. Such a declaration is
// deleted (with its tests, when nothing the paper or an experiment uses
// depends on it), moved into a _test.go file (when tests use it as a
// reference model), or kept with a reasoned //whvet:allow testonly
// (cross-package test accessors).
//
// A reference is any identifier, in any non-test file of any module
// package, that the type checker resolves to the declaration's object.
// Same-package callers count; a declaration's own body, and a type's
// own methods, do not. These are never findings:
//
//   - declarations in main packages (an entry point is its own user);
//   - packages that import testing from a non-test file (test-support
//     packages such as internal/benchgate exist to be called by tests);
//   - methods whose type, or pointer to it, implements an interface
//     that has a method of that name (String, Error, sort.Interface and
//     the like), since an interface call reaches them by name;
//   - constants, so an iota block keeps its unused members.
//
// The runner loads every module package that transitively imports an
// analyzed one (Analyzer.Importers), so a partial run such as
// `whvet ./internal/stats` reports for the named packages exactly what
// the full run reports for them: a caller outside the patterns is never
// outside the load. Code in another module that imports this one (a
// nested module such as cmd/whperf) is not loaded; a declaration only
// it uses carries an allow that says so.
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"

	"warehousesim/internal/analysis"
)

// Analyzer is the testonly check.
var Analyzer = &analysis.Analyzer{
	Name:      "testonly",
	Doc:       "exported API of a non-main package must be referenced from some non-test file in the module",
	Run:       run,
	Importers: true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == "testing" {
			return nil
		}
	}
	// A type's own methods name it in receivers and signatures; a type
	// used only there is still unused.
	methods := make(map[types.Object][]span)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				if recv := receiverType(pass.Info.Defs[fd.Name].(*types.Func)); recv != nil {
					methods[recv.Obj()] = append(methods[recv.Obj()], span{fd.Pos(), fd.End()})
				}
			}
		}
	}
	var ifaces interfaceIndex
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				fn := pass.Info.Defs[d.Name].(*types.Func)
				what := "func " + fn.Name()
				var recv *types.Named
				if d.Recv != nil {
					if recv = receiverType(fn); recv == nil || !recv.Obj().Exported() {
						continue
					}
					what = "method " + recv.Obj().Name() + "." + fn.Name()
				}
				if referenced(pass, fn, span{d.Pos(), d.End()}, nil) {
					continue
				}
				if recv != nil {
					if ifaces == nil {
						ifaces = newInterfaceIndex(pass)
					}
					if ifaces.satisfies(recv, fn.Name()) {
						continue
					}
				}
				report(pass, d.Name, what)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := pass.Info.Defs[s.Name]
						if s.Name.IsExported() && !referenced(pass, obj, span{s.Pos(), s.End()}, methods[obj]) {
							report(pass, s.Name, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						if d.Tok != token.VAR {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() && !referenced(pass, pass.Info.Defs[name], span{s.Pos(), s.End()}, nil) {
								report(pass, name, "var "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func report(pass *analysis.Pass, id *ast.Ident, what string) {
	pass.Reportf(id.Pos(), "exported %s has no reference outside tests: delete it, move it into a _test.go file, or allow it with a reason", what)
}

// span is a half-open source range.
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.from && p < s.to }

// referenced reports whether some use of obj in the load lies outside
// its own declaration and every one of the also spans.
func referenced(pass *analysis.Pass, obj types.Object, own span, also []span) bool {
	for _, p := range pass.UsesOf(obj) {
		inside := own.contains(p)
		for _, s := range also {
			inside = inside || s.contains(p)
		}
		if !inside {
			return true
		}
	}
	return false
}

// receiverType returns the named type a method is declared on.
func receiverType(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfaceIndex holds every named interface type declared at package
// level in the load's packages and everything they import, standard
// library and the universe's error included, keyed by method name.
type interfaceIndex map[string][]*types.Interface

func newInterfaceIndex(pass *analysis.Pass) interfaceIndex {
	idx := make(interfaceIndex)
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i).Name()
				idx[m] = append(idx[m], it)
			}
		}
	}
	add(types.Universe)
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		add(p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pass.AllPkgs {
		walk(p)
	}
	return idx
}

// satisfies reports whether t or *t implements an interface that has a
// method called name.
func (idx interfaceIndex) satisfies(t *types.Named, name string) bool {
	ptr := types.NewPointer(t)
	for _, it := range idx[name] {
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
