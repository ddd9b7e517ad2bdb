// Package maprange flags map iteration in functions that can reach an
// exporter or obs.Sink emission — the classic way Go's randomized map
// iteration order leaks into JSONL/CSV exports and breaks the
// byte-identical same-seed contract every CI diff gate depends on.
//
// A `for k := range m` is exempt when it is the first half of the
// sanctioned collect-and-sort idiom:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//
// i.e. the loop body only appends to slices (or only deletes from the
// ranged map), and at least one collected slice is later passed to a
// sort.* or slices.Sort* call in the same function.
//
// A second exemption covers keyed-write loops — bodies whose every
// write lands at dst[k] for the range key k (plus lazy map
// initialization), e.g.
//
//	for k, v := range src {
//		dst[k] += v
//	}
//
// Each key's write is independent of every other key's, so iteration
// order cannot reach the result regardless of what the function later
// emits. This is the shape of the obs merge/snapshot paths.
//
// "Can reach an emission" is computed over the package's static call
// graph: a function is emit-reaching when it (transitively, within the
// package) calls a method of obs.Sink (inside internal/obs too), any
// function declared under internal/obs, or an encoding/json or
// encoding/csv encoder. Cross-package indirection (a helper in another
// package that emits) is out of reach of a per-package analysis; the
// byte-diff gates remain the backstop for that residue (DESIGN.md §11).
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"warehousesim/internal/analysis"
)

// Analyzer is the maprange check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "map iteration in emit-reaching functions must collect and sort keys first",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimScope(pass.PkgPath) {
		return nil
	}

	// Pass 1: per-function emit seeds and the intra-package call graph.
	type funcNode struct {
		decl     *ast.FuncDecl
		emits    bool
		callees  map[*types.Func]bool
		reaching bool
	}
	nodes := make(map[*types.Func]*funcNode)
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fd)
			node := &funcNode{decl: fd, callees: make(map[*types.Func]bool)}
			nodes[obj] = node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isEmitCall(pass, call) {
					node.emits = true
				}
				if callee := calleeOf(pass, call); callee != nil {
					node.callees[callee] = true
				}
				return true
			})
		}
	}

	// Fixed point: propagate emit-reachability backwards over the
	// intra-package graph (callees in other packages count only when
	// they are emit calls, handled by isEmitCall above).
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.reaching {
				continue
			}
			if n.emits {
				n.reaching = true
				changed = true
				continue
			}
			for callee := range n.callees {
				if cn, ok := nodes[callee]; ok && cn.reaching {
					n.reaching = true
					changed = true
					break
				}
			}
		}
	}

	// Pass 2: map ranges inside emit-reaching functions.
	for _, fd := range decls {
		obj := pass.Info.Defs[fd.Name].(*types.Func)
		if !nodes[obj].reaching {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if collectAndSort(pass, fd.Body, rng) || deleteOnly(pass, rng) || keyedWritesOnly(pass, rng) {
				return true
			}
			pass.Reportf(rng.Pos(),
				"map iteration order reaches a sink/exporter emission from %s; collect the keys into a slice and sort before iterating (keyed writes dst[k]=… and delete-only loops are fine)",
				fd.Name.Name)
			return true
		})
	}
	return nil
}

// isEmitCall reports whether call is an emission seed: an obs.Sink
// method, a call into internal/obs from another package, or a json/csv
// encode.
func isEmitCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// An obs.Sink method seeds even inside internal/obs, where the
	// package clause below does not reach.
	if pass.SinkMethod(sel) {
		return true
	}
	// Call resolving into internal/obs or an encoder package?
	if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
		path := obj.Pkg().Path()
		if strings.HasPrefix(path, "warehousesim/internal/obs") && path != pass.PkgPath {
			return true
		}
		if path == "encoding/json" || path == "encoding/csv" {
			return true
		}
		// Hand-rolled exporters (internal/obs writes its JSONL rows
		// itself) surface as buffered/formatted writes.
		if path == "bufio" {
			return true
		}
		if path == "fmt" && strings.HasPrefix(obj.Name(), "Fprint") {
			return true
		}
	}
	return false
}

// calleeOf resolves a call to its static *types.Func target (package
// function or method), or nil for indirect calls.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// collectAndSort reports whether rng's body only appends to slices and
// one of those slices later flows into a sort call in the enclosing
// function body.
func collectAndSort(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	collected := make(map[types.Object]bool)
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		callRhs, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := callRhs.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if obj := pass.Info.ObjectOf(lhs); obj != nil {
			collected[obj] = true
		}
	}
	if len(collected) == 0 {
		return false
	}
	// Look for sort.X(collected) / slices.SortX(collected) anywhere
	// after the range statement.
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			if collected[pass.Info.ObjectOf(arg)] {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// deleteOnly reports whether rng's body consists solely of delete
// calls on the ranged map — order-independent, so safe.
func deleteOnly(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	rngObj := rangedObject(pass, rng.X)
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "delete" || len(call.Args) != 2 {
			return false
		}
		if rngObj != nil {
			if arg, ok := call.Args[0].(*ast.Ident); !ok || pass.Info.ObjectOf(arg) != rngObj {
				return false
			}
		}
	}
	return true
}

// keyedWritesOnly reports whether rng's body writes only to map
// entries indexed by the range key (dst[k] = …, dst[k] += …) or
// lazily initializes map-typed destinations. Such a loop is pointwise:
// each key's effect is independent of every other key's, so iteration
// order cannot reach any later emission. If-statements are allowed
// when both branches are themselves keyed-write-only (the init stmt
// and condition only read).
func keyedWritesOnly(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	keyObj := pass.Info.ObjectOf(key)
	if keyObj == nil || len(rng.Body.List) == 0 {
		return false
	}
	return keyedStmts(pass, rng.Body.List, keyObj)
}

func keyedStmts(pass *analysis.Pass, stmts []ast.Stmt, key types.Object) bool {
	for _, stmt := range stmts {
		if !keyedStmt(pass, stmt, key) {
			return false
		}
	}
	return true
}

func keyedStmt(pass *analysis.Pass, stmt ast.Stmt, key types.Object) bool {
	switch stmt := stmt.(type) {
	case *ast.AssignStmt:
		if stmt.Tok == token.DEFINE {
			return false // locals escape the pointwise shape
		}
		for _, lhs := range stmt.Lhs {
			if !keyedLHS(pass, lhs, key) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return keyedLHS(pass, stmt.X, key)
	case *ast.IfStmt:
		if !keyedStmts(pass, stmt.Body.List, key) {
			return false
		}
		if stmt.Else != nil {
			eb, ok := stmt.Else.(*ast.BlockStmt)
			if !ok || !keyedStmts(pass, eb.List, key) {
				return false
			}
		}
		return true
	}
	return false
}

// keyedLHS accepts dst[k] for the range key k, and bare map-typed
// lvalues (lazy initialization of the destination map).
func keyedLHS(pass *analysis.Pass, lhs ast.Expr, key types.Object) bool {
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		id, ok := ix.Index.(*ast.Ident)
		return ok && pass.Info.ObjectOf(id) == key
	}
	if t := pass.TypeOf(lhs); t != nil {
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	return false
}

func rangedObject(pass *analysis.Pass, x ast.Expr) types.Object {
	if id, ok := x.(*ast.Ident); ok {
		return pass.Info.ObjectOf(id)
	}
	return nil
}
