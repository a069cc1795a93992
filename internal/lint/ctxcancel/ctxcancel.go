// Package ctxcancel enforces the executor's cancellation invariant: every
// row-at-a-time loop must reach the cooperative cancellation poll
// (poller.check) so a context cancel or statement timeout interrupts the
// scan within one poll interval, never after an unbounded amount of work.
//
// The analysis is annotation-driven so it states the invariant once and
// mechanically finds the loops:
//
//   - `// dslint:poll` marks THE poll method (poller.check). A function
//     whose receiver or parameters can reach a poll method is
//     "poll-capable" — it had the means to poll, so its row loops must.
//   - `// dslint:row` marks types whose values identify one row
//     (tablestore.RowID); `// dslint:cell` marks single-cell types whose
//     slices form one row (sheet.Value, so [][]Value is a row set). A
//     range over rows — []row or [][]cell — inside a poll-capable
//     function must lexically contain a call to the poll method, to a
//     `// dslint:polls` helper, or to a local closure that polls.
//   - `// dslint:perrow` marks callbacks-per-row entry points (Store.Scan,
//     TableSnap.ScanColsRange, index Ascend/Descend). A func-literal callback
//     passed to one from a poll-capable function must poll the same way:
//     the callback runs once per visited row, so it is the loop body.
package ctxcancel

import (
	"go/ast"
	"go/types"

	"github.com/dataspread/dataspread/internal/lint"
)

// Analyzer is the ctxcancel analysis.
var Analyzer = &lint.Analyzer{
	Name: "ctxcancel",
	Doc:  "row-at-a-time loops in poll-capable executor functions must reach the cancellation poll",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pollCapable(pass, fd) {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// checkBody walks one poll-capable function body and flags row loops and
// per-row callbacks that never reach the poll. Local closures that poll
// (keep := func(...) { poll.check(); ... }) count at their call sites.
func checkBody(pass *lint.Pass, body *ast.BlockStmt) {
	closures := pollingClosures(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			if rowRange(pass, s) && !polls(pass, closures, s.Body) {
				pass.Reportf(s.Pos(), "row loop without cancellation poll: call the dslint:poll method (poller.check) in the loop body so cancel/timeout can interrupt the scan")
			}
		case *ast.CallExpr:
			obj := pass.CalleeOf(s)
			if obj == nil || !pass.Ann().Has(obj, "perrow", "") {
				return true
			}
			for _, arg := range s.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				if !polls(pass, closures, lit.Body) {
					pass.Reportf(lit.Pos(), "per-row callback passed to %s without cancellation poll: call the dslint:poll method (poller.check) inside the callback", obj.Name())
				}
			}
		}
		return true
	})
}

// polls reports whether the block lexically contains a call to a
// dslint:poll method, a dslint:polls helper, or a polling local closure.
func polls(pass *lint.Pass, closures map[types.Object]bool, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := pass.CalleeOf(call)
		if obj != nil && (closures[obj] || pass.Ann().Has(obj, "poll", "") || pass.Ann().Has(obj, "polls", "")) {
			found = true
			return false
		}
		return true
	})
	return found
}

// pollingClosures finds local closure variables whose function literal
// polls directly (keep := func(...) { ...poll.check()... }), so calling
// them inside a loop satisfies the invariant.
func pollingClosures(pass *lint.Pass, body *ast.BlockStmt) map[types.Object]bool {
	closures := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil || !polls(pass, nil, lit.Body) {
				continue
			}
			closures[obj] = true
		}
		return true
	})
	return closures
}

// rowRange reports whether the range statement iterates rows: the ranged
// expression is a slice (or array) whose element type is a dslint:row
// named type (a stream of row identities), or itself a slice of
// dslint:cell elements (a [][]cell row set). A plain []cell is ONE row —
// iterating its cells is bounded by the column count and needs no poll.
func rowRange(pass *lint.Pass, s *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo().Types[s.X]
	if !ok {
		return false
	}
	elem := elemType(tv.Type)
	if elem == nil {
		return false
	}
	if annotatedType(pass, elem, "row") {
		return true
	}
	if inner := elemType(elem); inner != nil && annotatedType(pass, inner, "cell") {
		return true
	}
	return false
}

// elemType returns the element type of a slice or array (seeing through
// named types), or nil.
func elemType(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	}
	return nil
}

// annotatedType reports whether t is a named type carrying the directive.
func annotatedType(pass *lint.Pass, t types.Type, directive string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return pass.Ann().Has(named.Obj(), directive, "")
}

// pollCapable reports whether the function's receiver or parameters give
// it access to a dslint:poll method — directly (a parameter whose type
// declares one) or one struct field deep (a receiver holding an execEnv).
func pollCapable(pass *lint.Pass, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			tv, ok := pass.TypesInfo().Types[f.Type]
			if !ok {
				continue
			}
			if typeHasPoll(pass, tv.Type, true) {
				return true
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// typeHasPoll reports whether t (seeing through one pointer) declares a
// dslint:poll method, or — when fields is true — has a struct field whose
// type does.
func typeHasPoll(pass *lint.Pass, t types.Type, fields bool) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if pass.Ann().Has(named.Method(i), "poll", "") {
			return true
		}
	}
	if fields {
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if typeHasPoll(pass, st.Field(i).Type(), false) {
					return true
				}
			}
		}
	}
	return false
}
