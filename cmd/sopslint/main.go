// Command sopslint is the multichecker for this repository's eleven
// contract analyzers (mapiter, rngsource, walltime, ctxflow, tokenpair,
// goroleak, chansend, dettaint, speccoverage, errverbatim, allocfree —
// see internal/lint and DESIGN.md "Mechanized contracts").
//
// Usage:
//
//	sopslint [-json] [patterns]
//
// It loads the module packages matched by the patterns (default ./...)
// in-process and reports diagnostics: human-readable lines on stderr,
// or with -json a JSON array on stdout. It exits 0 when clean, 2 on
// findings and 1 when the packages fail to load.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	asJSON := false
	var patterns []string
	for _, a := range os.Args[1:] {
		if a == "-json" || a == "--json" {
			asJSON = true
			continue
		}
		patterns = append(patterns, a)
	}
	os.Exit(run(patterns, asJSON))
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json:
// stable field names for CI annotation tooling.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads the patterns (default ./...) and prints diagnostics —
// human-readable lines on stderr, or with asJSON a JSON array on stdout
// (always an array, [] when clean, so consumers need no special cases).
func run(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sopslint:", err)
		return 1
	}
	diags, err := lint.Run(pkgs, lint.DefaultChecks())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sopslint:", err)
		return 1
	}
	if asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sopslint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
