package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// LatchCheck proves the storage engine's declared-table-set invariant
// statically: every table access through a transaction obtained from
// Engine.Begin(tables...) — or handed to the closure of
// Engine.Update(ctx, tables, fn) or Engine.UpdateEach(ctx, tables, n, fn) —
// must name a table in the declared set, so ErrTableNotDeclared can never
// fire at runtime. The check is interprocedural:
//
//   - the declared set is resolved by string-set dataflow (constants,
//     []string literals, append chains, package-level table lists, locals,
//     parameters, and helper-function return sets like attrValueTable);
//   - the Tx/Reader value is tracked through helper calls: a helper that
//     receives the transaction is analyzed against the caller's declared
//     set, with its own table-name parameters resolved across call sites;
//   - zero-argument Begin() and Update/UpdateEach with a nil table set
//     latch every table and are exempt;
//   - Engine.Snapshot() and Engine.SnapshotView(fn) hand out latch-free
//     MVCC readers pinned to the last committed version. A snapshot sees
//     every table that existed when it was taken and holds no latches, so
//     there is no declared set to prove: snapshot readers are exempt, even
//     with dynamic table names (a missing table is ErrNoSuchTable, never
//     ErrTableNotDeclared).
//
// Anything the dataflow cannot bound — a dynamic table name, a declared
// set built at runtime, a transaction escaping into a channel or field —
// is reported as unproven rather than silently trusted; waive intentional
// dynamism with //lint:ignore latchcheck <reason>. Parameter resolution is
// context-insensitive (arguments union over all call sites), which can
// over-approximate a helper's access set; the fix is declaring the union
// or ignoring with a reason.
type LatchCheck struct {
	// EngineType is the engine's named type as "import/path.Name"; its
	// Begin/Update/UpdateEach methods anchor the analysis. The engine's own
	// package is exempt (it implements the latching).
	EngineType string
}

// DefaultLatchCheck is the configuration for this repo.
func DefaultLatchCheck() LatchCheck {
	return LatchCheck{EngineType: "repro/internal/storage.Engine"}
}

// Name implements Checker.
func (LatchCheck) Name() string { return "latchcheck" }

// accessMethods are Tx/Reader methods whose first argument names a table.
var accessMethods = map[string]bool{
	"Insert":           true,
	"Update":           true,
	"Delete":           true,
	"Lookup":           true,
	"LookupIDs":        true,
	"ScanPrefix":       true,
	"ScanStringPrefix": true,
	"ScanStringAfter":  true,
	"Count":            true,
}

type latchChecker struct {
	g     *CallGraph
	res   *strResolver
	diags []Diagnostic
}

// bindSite describes one Begin/Update/UpdateEach binding for diagnostics.
type bindSite struct {
	kind     string // "Begin", "Update" or "UpdateEach"
	pos      string // short file:line
	declared StrSet
}

// Check implements Checker.
func (c LatchCheck) Check(prog *Program) []Diagnostic {
	enginePkg, engineName, ok := splitTypeKey(c.EngineType)
	if !ok {
		return nil
	}
	lc := &latchChecker{g: prog.CallGraph(), res: newStrResolver(prog.CallGraph())}
	for _, node := range lc.g.Nodes {
		if node.Pkg.Path == enginePkg {
			continue
		}
		for _, cs := range node.Calls {
			if cs.Callee == nil || recvTypeString(cs.Callee) != engineName ||
				pkgPathOf(cs.Callee) != enginePkg {
				continue
			}
			switch cs.Callee.Name() {
			case "Begin":
				lc.checkBegin(cs)
			case "Update":
				lc.checkUpdate(cs, 2)
			case "UpdateEach":
				lc.checkUpdate(cs, 3)
			case "Snapshot", "SnapshotView":
				// Latch-free snapshot readers see every table; there is
				// no declared set to prove.
			}
		}
	}
	return lc.diags
}

func (lc *latchChecker) errf(node *FuncNode, pos ast.Node, format string, args ...any) {
	lc.diags = append(lc.diags, Diagnostic{
		Pos:     lc.g.Prog.Fset.Position(pos.Pos()),
		Message: fmt.Sprintf(format, args...),
	})
}

// shortPos renders "file.go:12" for binding-site references.
func (lc *latchChecker) shortPos(n ast.Node) string {
	p := lc.g.Prog.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// checkBegin resolves the declared set of one Begin call and tracks the
// returned transaction through the enclosing function and its helpers.
func (lc *latchChecker) checkBegin(cs *CallSite) {
	if len(cs.Call.Args) == 0 {
		return // Begin() latches every table; nothing to prove
	}
	declared := StrSet{}
	if cs.Call.Ellipsis.IsValid() {
		if len(cs.Call.Args) > 0 {
			declared = lc.res.ResolveStringSlice(cs.Caller, cs.Call.Args[0])
		}
	} else {
		for _, arg := range cs.Call.Args {
			declared = declared.union(lc.res.ResolveString(cs.Caller, arg))
		}
	}
	bind := bindSite{kind: "Begin", pos: lc.shortPos(cs.Call), declared: declared}
	if declared.Dynamic {
		lc.errf(cs.Caller, cs.Call, "cannot resolve the declared table set of Begin; declared-set invariant unproven (use string constants, or //lint:ignore latchcheck <reason>)")
		return
	}
	txVar := lc.assignedVar(cs.Caller, cs.Call)
	if txVar == nil {
		lc.errf(cs.Caller, cs.Call, "transaction from Begin is not bound to a local variable; declared-set invariant unproven")
		return
	}
	lc.checkValueUses(cs.Caller, txVar, bind, nil)
}

// checkUpdate resolves the declared set of an Update or UpdateEach call
// (its second argument) and analyzes the closure at argument fnArg, whose
// first parameter is the transaction: a function literal or a named
// function.
func (lc *latchChecker) checkUpdate(cs *CallSite, fnArg int) {
	if len(cs.Call.Args) != fnArg+1 {
		return
	}
	names, fn := cs.Call.Args[1], ast.Unparen(cs.Call.Args[fnArg])
	if id, ok := ast.Unparen(names).(*ast.Ident); ok && id.Name == "nil" {
		return // nil declares every table; nothing to prove
	}
	kind := cs.Callee.Name()
	declared := lc.res.ResolveStringSlice(cs.Caller, names)
	bind := bindSite{kind: kind, pos: lc.shortPos(cs.Call), declared: declared}
	if declared.Dynamic {
		lc.errf(cs.Caller, cs.Call, "cannot resolve the declared table set of %s; declared-set invariant unproven (use string constants, or //lint:ignore latchcheck <reason>)", kind)
		return
	}
	switch body := fn.(type) {
	case *ast.FuncLit:
		litNode := lc.litNode(cs.Caller, body)
		if litNode == nil {
			return
		}
		txVar := firstParamVar(litNode)
		if txVar == nil {
			return
		}
		lc.checkValueUses(litNode, txVar, bind, nil)
		return
	case *ast.Ident:
		if fnObj, ok := cs.Caller.Pkg.Info.Uses[body].(*types.Func); ok {
			if fnNode, ok := lc.g.ByObj[fnObj]; ok {
				if txVar := firstParamVar(fnNode); txVar != nil {
					lc.checkValueUses(fnNode, txVar, bind, nil)
					return
				}
			}
		}
	}
	lc.errf(cs.Caller, fn, "%s closure is not statically analyzable; declared-set invariant unproven", kind)
}

// litNode finds the FuncNode of a literal nested (at any depth) in owner.
func (lc *latchChecker) litNode(owner *FuncNode, lit *ast.FuncLit) *FuncNode {
	var find func(n *FuncNode) *FuncNode
	find = func(n *FuncNode) *FuncNode {
		for _, l := range n.Lits {
			if l.Lit == lit {
				return l
			}
			if found := find(l); found != nil {
				return found
			}
		}
		return nil
	}
	return find(owner)
}

// firstParamVar returns the object of a node's first parameter.
func firstParamVar(node *FuncNode) *types.Var {
	var ft *ast.FuncType
	switch {
	case node.Decl != nil:
		ft = node.Decl.Type
	case node.Lit != nil:
		ft = node.Lit.Type
	}
	if ft == nil || ft.Params == nil || len(ft.Params.List) == 0 || len(ft.Params.List[0].Names) == 0 {
		return nil
	}
	v, _ := node.Pkg.Info.Defs[ft.Params.List[0].Names[0]].(*types.Var)
	return v
}

// assignedVar finds the variable the call's first result is bound to
// (`tx, err := e.Begin(...)`), or nil when the result is used any other
// way.
func (lc *latchChecker) assignedVar(node *FuncNode, call *ast.CallExpr) *types.Var {
	var out *types.Var
	inspectOwnBody(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call || len(as.Lhs) == 0 {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v, ok := node.Pkg.Info.Defs[id].(*types.Var); ok {
				out = v
			} else if v, ok := node.Pkg.Info.Uses[id].(*types.Var); ok {
				out = v
			}
		}
		return false
	})
	return out
}

// trackKey guards recursive helper analysis against cycles.
type trackKey struct {
	node *FuncNode
	v    *types.Var
}

// checkValueUses verifies every use of a tracked Tx/Reader variable in
// node's body (including nested literals, which capture it): direct access
// methods check their table argument against the declared set; passing the
// value to a statically known helper recurses into that helper; anything
// else is an escape the analysis reports as unproven.
func (lc *latchChecker) checkValueUses(node *FuncNode, v *types.Var, bind bindSite, visited map[trackKey]bool) {
	if visited == nil {
		visited = make(map[trackKey]bool)
	}
	key := trackKey{node: node, v: v}
	if visited[key] {
		return
	}
	visited[key] = true

	nodes := append([]*FuncNode{node}, collectLits(node)...)
	consumed := make(map[*ast.Ident]bool)
	for _, n := range nodes {
		for _, cs := range n.Calls {
			// Method call on the tracked value: tx.Insert(table, ...).
			if sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && usesVar(n, id, v) {
					consumed[id] = true
					if accessMethods[sel.Sel.Name] {
						lc.checkAccess(n, cs.Call, sel.Sel.Name, bind)
					}
					// Non-access methods (Commit, Rollback, ...) are neutral.
					continue
				}
			}
			// The tracked value passed as an argument: helper(tx, ...).
			for i, arg := range cs.Call.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || !usesVar(n, id, v) {
					continue
				}
				consumed[id] = true
				lc.checkHelperCall(n, cs, i, bind, visited)
			}
		}
	}
	// Any remaining use (assignment, return, channel send, field store,
	// address-of) escapes the analysis.
	for _, n := range nodes {
		inspectOwnBody(n, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if ok && usesVar(n, id, v) && !consumed[id] && n.Pkg.Info.Defs[id] == nil {
				lc.errf(n, id, "%s value escapes the declared-set analysis (%s at %s); keep it in access calls and helper arguments, or //lint:ignore latchcheck <reason>", v.Name(), bind.kind, bind.pos)
			}
			return true
		})
	}
}

// checkAccess verifies one table-name argument against the declared set.
func (lc *latchChecker) checkAccess(node *FuncNode, call *ast.CallExpr, method string, bind bindSite) {
	if len(call.Args) == 0 {
		return
	}
	tables := lc.res.ResolveString(node, call.Args[0])
	if tables.Dynamic {
		lc.errf(node, call.Args[0], "cannot resolve the table name passed to %s; declared-set invariant unproven (%s at %s declares %s) — use a constant or //lint:ignore latchcheck <reason>", method, bind.kind, bind.pos, bind.declared)
		return
	}
	if missing := tables.Minus(bind.declared); len(missing) > 0 {
		lc.errf(node, call.Args[0], "%s touches undeclared table %q; %s at %s declares only %s (ErrTableNotDeclared at runtime)", method, strings.Join(missing, `", "`), bind.kind, bind.pos, bind.declared)
	}
}

// checkHelperCall follows the tracked value into a helper function.
func (lc *latchChecker) checkHelperCall(node *FuncNode, cs *CallSite, argIdx int, bind bindSite, visited map[trackKey]bool) {
	if cs.Callee == nil {
		lc.errf(node, cs.Call, "tx/reader passed to a dynamic call; declared-set invariant unproven (%s at %s) — //lint:ignore latchcheck <reason> if intentional", bind.kind, bind.pos)
		return
	}
	calleeNode, ok := lc.g.ByObj[cs.Callee]
	if !ok {
		lc.errf(node, cs.Call, "tx/reader passed to %s outside the analyzed program; declared-set invariant unproven (%s at %s)", cs.Callee.Name(), bind.kind, bind.pos)
		return
	}
	sig := cs.Callee.Type().(*types.Signature)
	if argIdx >= sig.Params().Len() || (sig.Variadic() && argIdx >= sig.Params().Len()-1) {
		lc.errf(node, cs.Call, "tx/reader passed variadically to %s; declared-set invariant unproven (%s at %s)", cs.Callee.Name(), bind.kind, bind.pos)
		return
	}
	lc.checkValueUses(calleeNode, sig.Params().At(argIdx), bind, visited)
}

// collectLits returns every literal nested under node, transitively.
func collectLits(node *FuncNode) []*FuncNode {
	var out []*FuncNode
	for _, l := range node.Lits {
		out = append(out, l)
		out = append(out, collectLits(l)...)
	}
	return out
}

// usesVar reports whether the identifier refers to the variable.
func usesVar(node *FuncNode, id *ast.Ident, v *types.Var) bool {
	return node.Pkg.Info.Uses[id] == v
}

// splitTypeKey splits "import/path.Name" into package path and type name.
func splitTypeKey(key string) (pkg, name string, ok bool) {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}
