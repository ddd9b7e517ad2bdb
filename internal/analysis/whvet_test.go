package analysis_test

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"warehousesim/internal/analysis"
	"warehousesim/internal/analysis/analysistest"
	"warehousesim/internal/analysis/checks"
	"warehousesim/internal/analysis/hotpath"
	"warehousesim/internal/analysis/maprange"
	"warehousesim/internal/analysis/nodeterm"
	"warehousesim/internal/analysis/nohttp"
	"warehousesim/internal/analysis/obsname"
	"warehousesim/internal/analysis/testonly"
)

// Every fixture runs with the full KnownChecks registry, the way
// cmd/whvet invokes the framework, so directives for checks outside
// the analyzer under test stay valid.

func TestNodeterm(t *testing.T) {
	analysistest.Run(t, "nodeterm", []*analysis.Analyzer{nodeterm.Analyzer}, checks.Names())
}

func TestMaprange(t *testing.T) {
	// The fixture's obs/ stands in for internal/obs, so a Sink method
	// called inside its own package, where no call crosses into the obs
	// tree, must seed on its own.
	defer func(old string) { analysis.SinkPkg = old }(analysis.SinkPkg)
	analysis.SinkPkg = "warehousesim/internal/analysis/testdata/src/maprange/obs"
	analysistest.Run(t, "maprange", []*analysis.Analyzer{maprange.Analyzer}, checks.Names())
}

func TestNohttp(t *testing.T) {
	// The fixture's entry points live under its own cmd/ tree; point
	// the opt-in boundary there for the duration of the test.
	defer func(old []string) { nohttp.EntryPrefixes = old }(nohttp.EntryPrefixes)
	nohttp.EntryPrefixes = []string{"warehousesim/internal/analysis/testdata/src/nohttp/cmd/"}
	analysistest.Run(t, "nohttp", []*analysis.Analyzer{nohttp.Analyzer}, checks.Names())
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "hotpath", []*analysis.Analyzer{hotpath.Analyzer}, checks.Names())
}

func TestObsname(t *testing.T) {
	analysistest.Run(t, "obsname", []*analysis.Analyzer{obsname.Analyzer}, checks.Names())
}

func TestTestonly(t *testing.T) {
	analysistest.Run(t, "testonly", []*analysis.Analyzer{testonly.Analyzer}, checks.Names())
}

// TestTestonlyPartialRun: a run over the fixture's root package alone
// still loads cmd/app, the importer that calls Tick, so it reports for
// that package exactly what the full run reports. Without the widened
// load, Tick and the declarations only it reaches would read as
// test-only.
func TestTestonlyPartialRun(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(a *analysis.Analyzer, patterns ...string) []string {
		t.Helper()
		findings, err := analysis.Run(analysis.Options{Dir: dir, Patterns: patterns, Analyzers: []*analysis.Analyzer{a}, KnownChecks: checks.Names()})
		if err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, f := range findings {
			msgs = append(msgs, f.String())
		}
		return msgs
	}
	full, partial := run(testonly.Analyzer), run(testonly.Analyzer, ".")
	if len(full) == 0 || !slices.Equal(full, partial) {
		t.Errorf("partial run reports\n%s\nfull run reports\n%s", strings.Join(partial, "\n"), strings.Join(full, "\n"))
	}
	narrow := *testonly.Analyzer
	narrow.Importers = false
	if got := strings.Join(run(&narrow, "."), "\n"); !strings.Contains(got, "func Tick") {
		t.Errorf("without its importers loaded, Tick should read as test-only; got\n%s", got)
	}
}

// TestFindingJSONShape pins the field names of the -json schema
// (warehousesim-whvet/v1): downstream tooling greps these keys the
// same way it greps whcost -json.
func TestFindingJSONShape(t *testing.T) {
	b, err := json.Marshal(analysis.Finding{
		File: "a.go", Line: 3, Col: 7, Check: "nodeterm", Message: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a.go","line":3,"col":7,"check":"nodeterm","message":"m"}`
	if string(b) != want {
		t.Fatalf("Finding JSON = %s, want %s", b, want)
	}
}

// TestRegistryNames pins the registry: adding or renaming a check is a
// reviewed act (directive grammar and CI docs name them).
func TestRegistryNames(t *testing.T) {
	got := checks.Names()
	want := []string{"nodeterm", "maprange", "nohttp", "hotpath", "obsname", "testonly"}
	if len(got) != len(want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
}
