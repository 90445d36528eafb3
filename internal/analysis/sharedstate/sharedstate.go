// Package sharedstate proves that no simulator code shares mutable state
// between concurrent sweep units: the sweep orchestrator (hwdpbench -j N)
// runs independent simulations on separate goroutines in one process, so
// anything one simulation can touch that another can also touch is a data
// race and makes fixed-seed output depend on unit scheduling.
//
// Every function declared in a simulator package (every hwdp/internal/...
// package except the analyzers themselves and sweep, the orchestrator that
// owns the goroutines) is a root of a transitive walk over the callgraph
// facts (docs/ANALYSIS.md). A root may reach, across any number of calls
// and packages, none of:
//
//   - writes to package-level variables — a package var is reachable from
//     every concurrent simulation at once (the racy package-global
//     anon-file counter once made fixed-seed output depend on unit order);
//   - sync / sync/atomic primitives, channel operations and go statements
//     — a simulation is one goroutine driving one engine; locks "fix" the
//     race the first check exposes but reintroduce host-scheduling order
//     into the model.
//
// Initialization at declaration and in init functions is not flagged: it
// happens once, before any sweep unit starts.
package sharedstate

import (
	"go/ast"
	"regexp"

	"hwdp/internal/analysis"
	"hwdp/internal/analysis/callgraph"
)

var (
	// simPackages matches the module's internal packages; every function
	// they declare is a root of the walk, except in notRoots.
	simPackages = regexp.MustCompile(`^hwdp/internal/`)
	// notRoots matches the tooling and the sweep orchestrator, which run
	// outside any one simulation.
	notRoots = regexp.MustCompile(`^hwdp/internal/(analysis|sweep)(/|$)`)
)

// Analyzer is the sharedstate check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "prove transitively that simulator code reaches no package-level " +
		"variable writes, sync/channel use, or goroutines, which concurrent " +
		"sweep units would share",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := analysis.NormalizePkgPath(pass.Pkg.Path())
	if !simPackages.MatchString(path) || notRoots.MatchString(path) {
		return nil
	}
	reg, ok := pass.Unit.Facts.(*callgraph.Registry)
	if !ok {
		return nil // fact-less driver: nothing to walk
	}
	seen := map[string]bool{}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			root := callgraph.DeclFuncKey(pass.TypesInfo, fd)
			if root == "" {
				continue
			}
			for _, finding := range reg.Reachable(root, "sharedstate", false) {
				key := finding.Func + "|" + finding.Atom.Pos + "|" + finding.Atom.Kind
				if seen[key] {
					continue
				}
				seen[key] = true
				pos := finding.ReportPos()
				if !pos.IsValid() {
					pos = fd.Name.Pos()
				}
				via := ""
				if len(finding.Chain) > 0 {
					via = callgraph.RenderChain(finding.Chain) + ": "
				}
				pass.Reportf(pos, "model function %s reaches state shared across simulations: %s%s at %s — -j sweep units run concurrently in one process (docs/ANALYSIS.md)",
					callgraph.DisplayKey(root), via, finding.Atom.Msg, finding.Atom.Pos)
			}
		}
	}
	return nil
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return len(name) > 8 && name[len(name)-8:] == "_test.go"
}
