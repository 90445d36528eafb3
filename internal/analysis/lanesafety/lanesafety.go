// Package lanesafety rejects state-sharing patterns that are harmless in
// one simulation but break the isolation of concurrent sweep units: the
// sweep orchestrator (hwdpbench -j N) runs independent simulations on
// separate goroutines in one process, so anything one simulation's model
// code shares with another is a data race and makes output depend on unit
// scheduling. (The analyzer keeps the name it had when it also policed
// the in-run lane engine.) It flags, in hot-path packages:
//
//   - writes to package-level variables from function bodies — a package
//     var is reachable from every concurrent simulation at once, so a
//     write is a data race under -j N and a determinism hazard even when
//     it happens to be race-free (the racy package-global anon-file
//     counter once made fixed-seed output depend on unit order);
//   - sync primitives and channel operations — a simulation is one
//     goroutine driving one engine; locks "fix" the race the first check
//     exposes but reintroduce host-scheduling order into the model.
//
// Initialization at declaration and in init functions is not flagged:
// it happens once, before any sweep unit starts.
package lanesafety

import (
	"go/ast"
	"go/types"

	"hwdp/internal/analysis"
)

// Analyzer is the lanesafety check.
var Analyzer = &analysis.Analyzer{
	Name: "lanesafety",
	Doc: "forbid package-variable writes and sync/channel coordination in " +
		"simulator model packages: state shared between concurrent sweep " +
		"units races and makes output depend on host scheduling",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPathPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inInit := fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if !inInit {
						for _, lhs := range n.Lhs {
							checkPkgVarWrite(pass, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !inInit {
						checkPkgVarWrite(pass, n.X)
					}
				case *ast.SendStmt:
					pass.Reportf(n.Pos(), "channel send in model code: this serializes on the host scheduler, not the virtual clock; schedule the work as an engine event instead")
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						pass.Reportf(n.Pos(), "channel receive in model code: this serializes on the host scheduler, not the virtual clock; schedule the work as an engine event instead")
					}
				case *ast.SelectorExpr:
					checkSyncUse(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkPkgVarWrite flags an assignment target that resolves to a
// package-level variable (of this or any other package).
func checkPkgVarWrite(pass *analysis.Pass, lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		// A selector write (x.f = ...) mutates an object reached through a
		// pointer; which simulation owns an object is the components'
		// contract, not statically checkable here. Only bare package vars
		// are flagged.
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return
	}
	// Package-level variables are exactly those whose parent scope is the
	// package scope.
	if v.Parent() != v.Pkg().Scope() {
		return
	}
	pass.Reportf(lhs.Pos(), "write to package-level variable %s: package state is shared by every simulation in the process (data race between -j sweep units); move it onto a component of the simulation or initialize it at declaration", v.Name())
}

// checkSyncUse flags any use of a sync / sync-atomic object (type, func,
// or method) inside a model-package function body.
func checkSyncUse(pass *analysis.Pass, e *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[e.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		pass.Reportf(e.Pos(), "%s.%s in model code: host-scheduler synchronization makes event outcomes depend on goroutine timing; a simulation is one goroutine driving one engine", obj.Pkg().Name(), obj.Name())
	}
}
