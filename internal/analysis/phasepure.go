package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PhasePure checks the two-phase commit discipline the parallel backends
// depend on (see internal/optsim): during the *phase*, entry methods from
// the same conservative window run concurrently, each touching only its own
// chare's state and buffering global effects through Ctx (Send, Defer);
// at *commit*, the buffered effects replay sequentially in virtual-time
// order. Two statically checkable rules follow:
//
//   - Rule A — phase-side code must not write package-level variables.
//     A direct global write from an entry method (or any helper it calls)
//     races with the other phase workers and, even when "benign", makes
//     the parallel backend diverge from the sequential one. Route the
//     write through ctx.Defer.
//
//   - Rule B — commit closures must not read the chare. A closure handed
//     to ctx.Defer from an entry method runs at commit time, after other
//     events of the window may have advanced the chare's state; reading
//     `obj` (or an alias like `l := obj.(*LP)`) from inside it observes a
//     different state than the sequential engine would. Capture the
//     needed values into locals before deferring.
//
// Phase-side code is computed from the call graph: every function
// reachable from an entry-method or PE-handler root without crossing into
// a commit/scheduled closure or into the runtime's own packages
// (charm/des/optsim — they are the mechanism this discipline protects, and
// their internals run under the engine's own locks and orderings).
// Deliberate exceptions — state that is PE-local by construction, or
// sequential-backend-only paths — carry //charmvet:phase.
var PhasePure = &Analyzer{
	Name: "phasepure",
	Doc:  "checks parsim's two-phase discipline: no phase-side global writes, no chare reads in commit closures",
	Run:  runPhasePure,
}

func runPhasePure(pass *Pass) {
	g := pass.Graph
	reach := g.PhaseReach()
	for _, n := range pass.pkgNodes() {
		if _, ok := reach[n]; ok {
			chain := g.Chain(reach, n)
			pass.checkPhaseWrites(n, chain)
		}
		if n.Root == RootEntry {
			pass.checkCommitClosures(n)
		}
	}
}

// checkPhaseWrites enforces Rule A on one phase-side function body.
func (p *Pass) checkPhaseWrites(n *Node, chain []string) {
	inspectShallow(n.body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				p.flagGlobalWrite(lhs, chain)
			}
		case *ast.IncDecStmt:
			p.flagGlobalWrite(x.X, chain)
		}
		return true
	})
}

// flagGlobalWrite reports lhs when it resolves to (a path rooted at) a
// package-level variable. Writes through pointers held in globals are not
// tracked (conservatism, DESIGN.md §11); the bare `global = v`,
// `global.field = v`, `global[i] = v`, and `global++` shapes are.
func (p *Pass) flagGlobalWrite(lhs ast.Expr, chain []string) {
	base := lhs
	for {
		switch b := unparen(base).(type) {
		case *ast.SelectorExpr:
			// pkg.Var: the selector's X names a package, not a value.
			if _, isPkg := p.packageOf(b.X); isPkg {
				base = b.Sel
				continue
			}
			base = b.X
			continue
		case *ast.IndexExpr:
			base = b.X
			continue
		case *ast.StarExpr:
			base = b.X
			continue
		}
		break
	}
	id, ok := unparen(base).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if p.Waived(WaiverPhase, lhs.Pos()) {
		return
	}
	p.ReportChainf(lhs.Pos(), chain, "phase-side write to package-level variable %s; concurrent phase workers race on it — defer the write through ctx.Defer or annotate //charmvet:phase%s",
		id.Name, chainSuffix(chain))
}

// checkCommitClosures enforces Rule B on one entry-method root: find the
// chare parameter (and its type-asserted aliases), then flag Defer
// closures that reference any of them.
func (p *Pass) checkCommitClosures(n *Node) {
	objVars := p.chareParamAliases(n)
	if len(objVars) == 0 {
		return
	}
	inspectShallow(n.body(), func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := scheduleCallKind(p.Info, call); !ok || kind != RootCommit {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(y ast.Node) bool {
				id, ok := y.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := p.Info.Uses[id].(*types.Var)
				if !ok || !objVars[v] {
					return true
				}
				if p.Waived(WaiverPhase, id.Pos()) {
					return true
				}
				p.Reportf(id.Pos(), "commit closure reads chare state %s; at commit time other events may have advanced it — capture the needed values into locals before deferring, or annotate //charmvet:phase", id.Name)
				return true
			})
		}
		return true
	})
}

// chareParamAliases returns the entry method's chare parameter plus every
// local derived from it by assignment or type assertion (`l := obj.(*LP)`),
// iterated to a fixpoint.
func (p *Pass) chareParamAliases(n *Node) map[*types.Var]bool {
	sig := p.Graph.nodeSig(n)
	if sig == nil || sig.Params().Len() != 3 {
		return nil
	}
	objVars := map[*types.Var]bool{sig.Params().At(0): true}
	for {
		grew := false
		inspectShallow(n.body(), func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !p.aliasExpr(rhs, objVars) {
					continue
				}
				lid, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := p.Info.Defs[lid].(*types.Var)
				if v == nil {
					v, _ = p.Info.Uses[lid].(*types.Var)
				}
				// Only reference-shaped derivations alias the chare: a
				// pointer (`l := obj.(*LP)`) or interface copy still
				// points at live state, while a plain value copy
				// (`n := l.n`) is the sanctioned capture idiom.
				if v != nil && !objVars[v] && refShaped(v.Type()) {
					objVars[v] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return objVars
		}
	}
}

// refShaped reports whether t still references the original object after
// an assignment copy: pointers and interfaces do, plain values do not.
func refShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// aliasExpr reports whether e evaluates to a view of one of vars: the
// variable itself, a type assertion on it, a field/element path from it,
// or the address of such a path. A function call is not an alias even
// when an aliased variable is an argument — `err := fmt.Errorf(..., l.n)`
// builds a fresh value (a callee returning an interior pointer is the
// conservatism documented in DESIGN.md §11).
func (p *Pass) aliasExpr(e ast.Expr, vars map[*types.Var]bool) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		return ok && vars[v]
	case *ast.TypeAssertExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.SelectorExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.IndexExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.StarExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.UnaryExpr:
		return e.Op == token.AND && p.aliasExpr(e.X, vars)
	}
	return false
}
