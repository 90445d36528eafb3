// Package suite registers the repo's analyzers in one place, shared by
// cmd/hwdplint and the repo-level lint regression test, and provides the
// whole-load driver that threads callgraph facts between packages in
// dependency order.
package suite

import (
	"sort"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
	"hwdp/internal/analysis/eventcapture"
	"hwdp/internal/analysis/hotalloc"
	"hwdp/internal/analysis/poolpair"
	"hwdp/internal/analysis/sharedstate"
	"hwdp/internal/analysis/simdeterminism"
	"hwdp/internal/analysis/simtime"
	"hwdp/internal/analysis/statuscase"
)

// Analyzers is the full hwdplint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	sharedstate.Analyzer,
	poolpair.Analyzer,
	simtime.Analyzer,
	eventcapture.Analyzer,
	hotalloc.Analyzer,
	statuscase.Analyzer,
}

// Result pairs one unit with its surviving diagnostics.
type Result struct {
	// Unit is the analyzed package.
	Unit *analysis.Unit
	// Diags are the unit's findings, sorted by position.
	Diags []analysis.Diagnostic
}

// RunAll drives the suite over a whole standalone load: it summarizes
// every unit into one shared callgraph registry in dependency order
// (imports before importers, so cross-package walks see complete facts),
// then runs the analyzers over each unit. Results are returned in the
// input order. This is the in-process equivalent of the vet driver's
// fact files.
func RunAll(units []*analysis.Unit) ([]Result, error) {
	byPath := make(map[string]*analysis.Unit, len(units))
	for _, u := range units {
		byPath[analysis.NormalizePkgPath(u.Pkg.Path())] = u
	}
	reg := callgraph.NewRegistry()
	done := make(map[string]bool, len(units))
	var summarize func(u *analysis.Unit)
	summarize = func(u *analysis.Unit) {
		path := analysis.NormalizePkgPath(u.Pkg.Path())
		if done[path] {
			return
		}
		done[path] = true
		imps := u.Pkg.Imports()
		sorted := make([]string, 0, len(imps))
		for _, imp := range imps {
			sorted = append(sorted, analysis.NormalizePkgPath(imp.Path()))
		}
		sort.Strings(sorted)
		for _, p := range sorted {
			if dep, ok := byPath[p]; ok {
				summarize(dep)
			}
		}
		callgraph.Summarize(u, reg)
	}
	for _, u := range units {
		summarize(u)
	}

	results := make([]Result, 0, len(units))
	for _, u := range units {
		u.Facts = reg
		diags, err := analysis.Run(u, Analyzers)
		if err != nil {
			return nil, err
		}
		results = append(results, Result{Unit: u, Diags: diags})
	}
	return results, nil
}
