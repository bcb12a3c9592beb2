// Package lint is sopslint: eleven custom static analyzers that
// mechanize this repository's written contracts — bit-identical
// determinism, rngx-derived randomness, wall-clock-free fingerprints,
// context-aware cancellation, balanced worker-token accounting, joined
// goroutine lifecycles, cancellable producer sends,
// nondeterminism-free result/fingerprint flows, fingerprint coverage
// of every spec knob, verbatim cancellation errors, and
// allocation-free hot paths (DESIGN.md, "Mechanized contracts"). One
// in-process driver runs it: load.Packages then Run, behind both
// cmd/sopslint (locally and in CI) and the meta-test that keeps this
// repository at zero diagnostics.
//
// The syntax-shape analyzers work on the AST directly; walltime,
// dettaint, goroleak, chansend and tokenpair sit on the flow-sensitive
// layer in internal/lint/analysis — a per-function CFG, a worklist
// dataflow solver, and one-level call summaries — so sanctioned idioms
// (collect-sort-iterate, deferred Done or Release on all paths,
// Duration instrumentation columns) pass without annotation.
//
// Analysis is modular across packages: before any analyzer runs on a
// package, ExportFacts publishes that package's facts (taint summaries,
// bounded goroutine launchers, context-root minting, error-wrapping
// helpers, allocation summaries, nohash exclusions) to its FactSet, and
// analyzers consult imported facts at cross-package call and type
// boundaries. load.Packages returns packages in dependency order
// sharing one fact set, so every import sees its dependency's exports.
//
// A finding that is a sanctioned exception is silenced with a directive
// on (or immediately above) the offending line:
//
//	//sopslint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive names one or more analyzers (comma-separated, no
// spaces) and must give a reason; a directive naming an unknown
// analyzer, or giving no reason, is itself a diagnostic, so
// suppressions cannot rot silently.
package lint

import (
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// A Check pairs an analyzer with the set of packages its contract binds.
type Check struct {
	*analysis.Analyzer
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path.
	AppliesTo func(pkgPath string) bool
}

// resultProducing lists the packages whose outputs feed figures, sweep
// checkpoints or persisted results — the scope of the mapiter
// determinism contract.
var resultProducing = map[string]bool{
	"repro/internal/infotheory":   true,
	"repro/internal/infodynamics": true,
	"repro/internal/sweep":        true,
	"repro/internal/experiment":   true,
	"repro/internal/observer":     true,
	"repro/internal/statcomplex":  true,
}

// inModule reports whether path belongs to this module.
func inModule(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// contractScope is the root package plus internal/... minus the lint
// suite itself: the code whose behaviour reaches fingerprints,
// checkpoints and result streams. CLIs (cmd/...) and examples are
// outside — they own program lifetime, so wall clocks and root contexts
// are legitimate there.
func contractScope(path string) bool {
	if strings.HasPrefix(path, "repro/internal/lint") {
		return false
	}
	return path == "repro" || strings.HasPrefix(path, "repro/internal/")
}

// Analyzers returns the eleven sopslint analyzers.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Mapiter, RNGSource, Walltime, CtxFlow, TokenPair, Goroleak, Chansend, Dettaint, SpecCoverage, ErrVerbatim, AllocFree}
}

// DefaultChecks returns the suite with each analyzer scoped to the
// packages its contract covers (see DESIGN.md, "Mechanized contracts").
func DefaultChecks() []Check {
	return []Check{
		{Mapiter, func(p string) bool { return resultProducing[p] }},
		{RNGSource, func(p string) bool { return inModule(p) && p != "repro/internal/rngx" }},
		{Walltime, contractScope},
		{CtxFlow, contractScope},
		{TokenPair, inModule},
		{Goroleak, contractScope},
		{Chansend, contractScope},
		{Dettaint, func(p string) bool { return resultProducing[p] || p == "repro/internal/spec" }},
		{SpecCoverage, contractScope},
		{ErrVerbatim, contractScope},
		{AllocFree, contractScope},
	}
}

// Run applies the checks to the packages, resolves //sopslint:ignore
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*analysis.Package, checks []Check) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		// Publish this package's facts before analyzing it, so checks
		// on it — and, with pkgs in dependency order, on everything
		// that imports it — see the exports.
		ExportFacts(pkg)
		var diags []analysis.Diagnostic
		for _, c := range checks {
			if c.AppliesTo != nil && !c.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := analysis.Run(c.Analyzer, pkg)
			if err != nil {
				return nil, err
			}
			diags = append(diags, ds...)
		}
		all = append(all, applyDirectives(pkg, diags)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
