package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// Finding is one reportable violation after directive suppression, in
// the shape whvet prints and -json serializes.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Options configures one Run.
type Options struct {
	// Dir is the directory go list resolves patterns from (the module
	// root for whvet, a fixture root for analysistest).
	Dir string
	// Patterns are go package patterns; default ./...
	Patterns []string
	// Analyzers to run over every matched package.
	Analyzers []*Analyzer
	// KnownChecks names every check a directive may allow. It defaults
	// to the names of Analyzers, but the whvet CLI always passes the
	// full registry so running a subset of checks (-checks) does not
	// turn valid directives for the others into findings.
	KnownChecks []string
}

// Run loads the packages matched by opts, runs every analyzer over
// each of them, applies //whvet:allow suppression, and returns the
// surviving findings sorted by file, line, column, then check. File
// paths are relative to opts.Dir when possible.
func Run(opts Options) ([]Finding, error) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	known := make(map[string]bool)
	for _, name := range opts.KnownChecks {
		known[name] = true
	}
	if len(known) == 0 {
		for _, a := range opts.Analyzers {
			known[a.Name] = true
		}
	}

	widen := false
	for _, a := range opts.Analyzers {
		widen = widen || a.Importers
	}
	fset, pkgs, depsOf, err := loadPackages(opts.Dir, opts.Patterns, widen)
	if err != nil {
		return nil, err
	}
	allPkgs := make(map[string]*types.Package, len(pkgs))
	for _, p := range pkgs {
		allPkgs[p.path] = p.pkg
	}
	var uses map[types.Object][]token.Pos // built on first UsesOf call
	usesOf := func(obj types.Object) []token.Pos {
		if uses == nil {
			uses = make(map[types.Object][]token.Pos)
			for _, p := range pkgs {
				for id, o := range p.info.Uses {
					o = origin(o)
					uses[o] = append(uses[o], id.Pos())
				}
			}
		}
		return uses[origin(obj)]
	}

	var findings []Finding
	relFile := func(pos token.Position) string {
		if opts.Dir != "" {
			if rel, err := filepath.Rel(opts.Dir, pos.Filename); err == nil && filepath.IsLocal(rel) {
				return rel
			}
		}
		return pos.Filename
	}

	for _, p := range pkgs {
		if !p.root {
			continue
		}
		// Directive index per file; malformed directives are findings
		// under the reserved check name "whvet" and are never
		// suppressible.
		directives := make(map[string]fileDirectives, len(p.files))
		for _, f := range p.files {
			fname := fset.Position(f.Pos()).Filename
			directives[fname] = parseDirectives(fset, f, known, func(pos token.Pos, msg string) {
				position := fset.Position(pos)
				findings = append(findings, Finding{
					File: relFile(position), Line: position.Line, Col: position.Column,
					Check: DirectiveCheck, Message: msg,
				})
			})
		}

		for _, a := range opts.Analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    p.files,
				Pkg:      p.pkg,
				Info:     p.info,
				PkgPath:  p.path,
				Deps:     p.deps,
				AllPkgs:  allPkgs,
				DepsOf:   depsOf,
				UsesOf:   usesOf,
			}
			pass.report = func(d Diagnostic) {
				position := fset.Position(d.Pos)
				if !d.NoAllow {
					if fd, ok := directives[position.Filename]; ok && fd.suppresses(a.Name, position.Line) {
						return
					}
				}
				findings = append(findings, Finding{
					File: relFile(position), Line: position.Line, Col: position.Column,
					Check: a.Name, Message: d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, p.path, err)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings, nil
}

// origin maps a method or field of an instantiated generic type to
// its generic declaration, the object a declaration site defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// DirectiveCheck is the reserved check name malformed //whvet:
// directives are reported under.
const DirectiveCheck = "whvet"
