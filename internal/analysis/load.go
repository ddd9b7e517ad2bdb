package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader resolves packages with `go list -export -deps -json` and
// type-checks the module's packages from source. Standard-library
// dependencies are imported from the compiler's export data (the
// Export field go list reports), so loading needs no module proxy, no
// GOPATH layout, and no re-type-check of the standard library — the
// same offline posture as the rest of the repo.

// loadedPackage is one type-checked module package plus the metadata
// the runner and analyzers need.
type loadedPackage struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	deps  map[string]bool // transitive import paths
	// root marks packages matched by the requested patterns (as
	// opposed to dependencies pulled in by -deps); only roots are
	// analyzed.
	root bool
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Deps       []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// loadPackages lists patterns relative to dir, parses and type-checks
// every non-standard package, and returns the shared FileSet, the
// packages in dependency order, and a whole-graph transitive-closure
// lookup (standard library included). With widen set, every package
// under dir or in the roots' module that transitively imports a root is
// loaded too, as a non-root, so checks that count a declaration's
// callers see all of them on a partial run.
func loadPackages(dir string, patterns []string, widen bool) (*token.FileSet, []*loadedPackage, func(string) map[string]bool, error) {
	listArgs := []string{"-export", "-deps", "-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Imports,Module,Error"}
	listed, err := goList(dir, append(listArgs, patterns...))
	if err != nil {
		return nil, nil, nil, err
	}
	roots := make(map[string]bool)
	for _, p := range listed {
		if !p.DepOnly && !p.Standard {
			roots[p.ImportPath] = true
		}
	}
	if widen {
		importers, err := moduleImporters(dir, listed, roots)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(importers) > 0 {
			listed, err = goList(dir, append(append(listArgs, patterns...), importers...))
			if err != nil {
				return nil, nil, nil, err
			}
		}
	}

	byPath := make(map[string]*listPackage)
	exports := make(map[string]string)
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// Transitive import closure per package, memoized over the listing
	// (which contains the full dependency graph thanks to -deps).
	closure := make(map[string]map[string]bool)
	var depsOf func(path string) map[string]bool
	depsOf = func(path string) map[string]bool {
		if d, ok := closure[path]; ok {
			return d
		}
		d := make(map[string]bool)
		closure[path] = d // set before recursing; import graphs are acyclic
		if p := byPath[path]; p != nil {
			for _, imp := range p.Imports {
				if imp == "C" {
					continue
				}
				d[imp] = true
				for sub := range depsOf(imp) {
					d[sub] = true
				}
			}
		}
		return d
	}

	fset := token.NewFileSet()
	typed := make(map[string]*types.Package)
	gcImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*loadedPackage
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if tp, ok := typed[path]; ok {
					return tp, nil
				}
				if path == "unsafe" {
					return types.Unsafe, nil
				}
				return gcImp.Import(path)
			}),
		}
		tp, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		typed[lp.ImportPath] = tp
		pkgs = append(pkgs, &loadedPackage{
			path:  lp.ImportPath,
			dir:   lp.Dir,
			files: files,
			pkg:   tp,
			info:  info,
			deps:  depsOf(lp.ImportPath),
			root:  roots[lp.ImportPath],
		})
	}
	return fset, pkgs, func(path string) map[string]bool {
		if _, ok := byPath[path]; !ok {
			return nil
		}
		return depsOf(path)
	}, nil
}

// goList runs `go list` with args in dir and decodes its JSON stream.
func goList(dir string, args []string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		listed = append(listed, p)
	}
}

// moduleImporters returns the packages under dir and in the roots'
// module that transitively import a root and are not already in listed.
// Packages under testdata are outside the module wildcard, so a fixture
// tree's importers are found by the walk of dir.
func moduleImporters(dir string, listed []*listPackage, roots map[string]bool) ([]string, error) {
	have := make(map[string]bool, len(listed))
	module := ""
	for _, p := range listed {
		have[p.ImportPath] = true
		if roots[p.ImportPath] && p.Module != nil {
			module = p.Module.Path
		}
	}
	wildcards := []string{"./..."}
	if module != "" {
		wildcards = append(wildcards, module+"/...")
	}
	all, err := goList(dir, append([]string{"-json=ImportPath,Deps,Error"}, wildcards...))
	if err != nil {
		return nil, err
	}
	var importers []string
	for _, p := range all {
		if have[p.ImportPath] {
			continue
		}
		for _, d := range p.Deps {
			if roots[d] {
				importers = append(importers, p.ImportPath)
				break
			}
		}
	}
	return importers, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
