// Command whvet runs the repo's static-invariant analyzer suite
// (internal/analysis) over the given package patterns and exits
// non-zero when any finding survives //whvet:allow suppression.
//
//	whvet ./...                  # the make lint invocation
//	whvet -checks nodeterm ./internal/des/...
//	whvet -json ./...            # machine-readable findings
//
// The six checks and their invariants are documented in DESIGN.md
// §11; `whvet -list` prints the registry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"warehousesim/internal/analysis"
	"warehousesim/internal/analysis/checks"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as JSON (schema warehousesim-whvet/v1) instead of text")
		checkList = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list      = flag.Bool("list", false, "list the registered checks and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: whvet [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Static enforcement of the repo's determinism, allocation and link-boundary\ninvariants. Packages default to ./...\n\nChecks:\n")
		for _, a := range checks.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range checks.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := checks.ByName(*checkList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whvet:", err)
		os.Exit(2)
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whvet:", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(analysis.Options{
		Dir:       dir,
		Patterns:  flag.Args(),
		Analyzers: selected,
		// Directive validation always knows the full registry, so
		// running a subset never misreports valid directives for the
		// other checks.
		KnownChecks: checks.Names(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "whvet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := struct {
			Schema   string             `json:"schema"`
			Findings []analysis.Finding `json:"findings"`
		}{Schema: "warehousesim-whvet/v1", Findings: findings}
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "whvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) == 0 {
			fmt.Printf("whvet: %d checks clean\n", len(selected))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
