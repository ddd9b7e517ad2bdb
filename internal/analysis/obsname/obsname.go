// Package obsname validates every string-literal metric and stream
// name passed to an obs.Sink method (Count, Gauge, Observe, Event, and
// the handle getters Counter, Series and Hist) against the repo's
// registered naming scheme, so a typoed
// name — "membalde.hit_rate" — fails the build instead of silently
// creating a parallel, never-compared series in the exports.
//
// The scheme (see registry.go for the registered sets):
//
//   - names are dot-separated lowercase [a-z0-9_] components, the
//     first of which is a registered domain: "memblade.hit_rate",
//     "slo.windows_violating";
//   - dynamic suffixes are built by concatenating a registered prefix
//     literal ending in "." (e.g. "util." + resourceName); the prefix
//     is validated, the runtime remainder is the caller's contract;
//   - a handful of bare legacy names ("request", "latency_sec", ...)
//     predate the scheme and are frozen in exported artifacts and
//     golden files, so they are registered verbatim; new bare names
//     are rejected.
package obsname

import (
	"go/ast"
	"go/constant"
	"strconv"
	"strings"

	"warehousesim/internal/analysis"
)

// Analyzer is the obsname check.
var Analyzer = &analysis.Analyzer{
	Name: "obsname",
	Doc:  "obs.Sink metric/stream names must follow the registered domain.metric scheme",
	Run:  run,
}

// nameTakingMethods maps Sink method names to the index of their
// name argument. The handle getters are here too, so a name resolved
// once into a handle meets the same registry as a named call.
var nameTakingMethods = map[string]int{
	"Count": 0, "Gauge": 0, "Observe": 0, "Event": 0,
	"Counter": 0, "Series": 0, "Hist": 0,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			argIdx, ok := nameTakingMethods[sel.Sel.Name]
			if !ok || len(call.Args) <= argIdx || !pass.SinkMethod(sel) {
				return true
			}
			checkName(pass, call.Args[argIdx])
			return true
		})
	}
	return nil
}

// checkName validates the name argument when it is statically known:
// a constant string (literal or named constant), or a concatenation
// whose leftmost operand is a registered "domain.…" prefix literal.
func checkName(pass *analysis.Pass, arg ast.Expr) {
	// Constant (covers literals and named constants like span.Stream).
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
		name := constant.StringVal(tv.Value)
		if msg := validateFull(name); msg != "" {
			pass.Reportf(arg.Pos(), "metric name %q: %s", name, msg)
		}
		return
	}
	// Concatenation with a literal prefix: "util." + r.Name().
	if b, ok := arg.(*ast.BinaryExpr); ok {
		left := leftmost(b)
		if lit, ok := left.(*ast.BasicLit); ok {
			prefix, err := strconv.Unquote(lit.Value)
			if err != nil {
				return
			}
			if msg := validatePrefix(prefix); msg != "" {
				pass.Reportf(lit.Pos(), "metric name prefix %q: %s", prefix, msg)
			}
			return
		}
	}
	// Fully dynamic names can't be checked statically; the exporters'
	// sorted-key output keeps them deterministic, and the registry
	// covers the literal sites, which is where typos happen.
}

func leftmost(e ast.Expr) ast.Expr {
	for {
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			return e
		}
		e = b.X
	}
}

// validateFull returns a diagnostic message for a complete name, or
// "" when the name conforms.
func validateFull(name string) string {
	parts := strings.Split(name, ".")
	for _, p := range parts {
		if !componentOK(p) {
			return "components must be lowercase [a-z0-9_] starting with a letter"
		}
	}
	if len(parts) == 1 {
		if legacyBare[name] {
			return ""
		}
		return "bare names are closed to new entries; use domain.metric (registered domains: " + domainList() + ")"
	}
	if !domains[parts[0]] {
		return "unregistered domain " + strconv.Quote(parts[0]) + " (registered: " + domainList() + "); add it to internal/analysis/obsname/registry.go if it is intentional"
	}
	return ""
}

// validatePrefix returns a diagnostic for a concatenation prefix
// (which must end in "." and name a registered domain), or "".
func validatePrefix(prefix string) string {
	if !strings.HasSuffix(prefix, ".") {
		return "concatenated names must build from a registered \"domain.\" literal prefix so the domain is statically known"
	}
	trimmed := strings.TrimSuffix(prefix, ".")
	parts := strings.Split(trimmed, ".")
	for _, p := range parts {
		if !componentOK(p) {
			return "components must be lowercase [a-z0-9_] starting with a letter"
		}
	}
	if !domains[parts[0]] {
		return "unregistered domain " + strconv.Quote(parts[0]) + " (registered: " + domainList() + ")"
	}
	return ""
}

func componentOK(s string) bool {
	if s == "" {
		return false
	}
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}
