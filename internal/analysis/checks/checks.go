// Package checks is the whvet analyzer registry: the six invariant
// checks, in the order they report.
package checks

import (
	"strings"

	"warehousesim/internal/analysis"
	"warehousesim/internal/analysis/hotpath"
	"warehousesim/internal/analysis/maprange"
	"warehousesim/internal/analysis/nodeterm"
	"warehousesim/internal/analysis/nohttp"
	"warehousesim/internal/analysis/obsname"
	"warehousesim/internal/analysis/testonly"
)

// All returns the full analyzer suite in registration order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterm.Analyzer,
		maprange.Analyzer,
		nohttp.Analyzer,
		hotpath.Analyzer,
		obsname.Analyzer,
		testonly.Analyzer,
	}
}

// Names returns the registered check names, in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// ByName returns the analyzers selected by the comma-separated list
// (empty selects all), or an error naming the unknown check.
func ByName(list string) ([]*analysis.Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, &UnknownCheckError{Name: name}
		}
		out = append(out, a)
	}
	return out, nil
}

// UnknownCheckError names a -checks entry that is not registered.
type UnknownCheckError struct{ Name string }

func (e *UnknownCheckError) Error() string {
	return "unknown check " + e.Name + " (registered: " + strings.Join(Names(), ", ") + ")"
}
