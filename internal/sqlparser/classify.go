package sqlparser

// Statement classification and placeholder accounting. The core layer used
// to decide "does this SQL mutate?" by string-prefix matching on the raw
// text, which misclassified leading comments, whitespace and any future
// read-only statement kinds; classifying the parsed statement is exact.

// Mutates reports whether executing the statement can change database state.
// SELECT and EXPLAIN (of anything) are read-only; everything else — DML, DDL
// and transaction control — is treated as mutating. Transaction control
// counts as mutating so a replayed log preserves commit/rollback boundaries.
func Mutates(stmt Statement) bool {
	switch stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		// EXPLAIN only plans; it never executes the wrapped statement.
		return false
	}
	return true
}

// NumPlaceholders counts the parameter slots of a statement (in every
// clause, including sub-selects and EXPLAIN-wrapped statements). Execution
// must bind exactly this many argument values. Positional '?' placeholders
// take one slot each; repeated ':name' placeholders share a slot per
// distinct name.
func NumPlaceholders(stmt Statement) int {
	n := 0
	Walk(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Index+1 > n {
			n = p.Index + 1
		}
	}, nil)
	return n
}

// ParamNames returns the statement's parameter names by slot index: the
// lower-cased ':name' of each slot for named statements, empty strings for
// positional '?' statements (and an all-empty slice when the styles are
// absent). len(ParamNames(stmt)) == NumPlaceholders(stmt).
func ParamNames(stmt Statement) []string {
	names := make([]string, NumPlaceholders(stmt))
	Walk(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Name != "" {
			names[p.Index] = p.Name
		}
	}, nil)
	return names
}

// Walk visits, pre-order, every expression node reachable from a statement:
// projections, join conditions, WHERE/GROUP BY/HAVING/ORDER BY, DML values
// and assignments, column DEFAULT expressions, and an EXPLAIN's statement.
// tables, when non-nil, hears of every FROM and JOIN source — a named table,
// a RANGETABLE reference or a sub-select, whose own sources and expressions
// follow it. It is the one walker of the SQL tree: the executor's analysis
// and the interface manager's binding resolution use it too.
func Walk(stmt Statement, exprs func(Expr), tables func(TableRef)) {
	walker{exprs, tables}.stmt(stmt)
}

type walker struct {
	exprs  func(Expr)
	tables func(TableRef)
}

func (w walker) stmt(stmt Statement) {
	switch st := stmt.(type) {
	case *SelectStmt:
		w.sel(st)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				WalkExpr(e, w.exprs)
			}
		}
		if st.Select != nil {
			w.sel(st.Select)
		}
	case *UpdateStmt:
		for _, a := range st.Set {
			WalkExpr(a.Value, w.exprs)
		}
		WalkExpr(st.Where, w.exprs)
	case *DeleteStmt:
		WalkExpr(st.Where, w.exprs)
	case *CreateTableStmt:
		for _, col := range st.Columns {
			WalkExpr(col.Default, w.exprs)
		}
		if st.AsSelect != nil {
			w.sel(st.AsSelect)
		}
	case *AlterTableStmt:
		if st.AddColumn != nil {
			WalkExpr(st.AddColumn.Default, w.exprs)
		}
	case *ExplainStmt:
		w.stmt(st.Stmt)
	}
}

func (w walker) sel(st *SelectStmt) {
	for _, item := range st.Columns {
		WalkExpr(item.Expr, w.exprs)
	}
	w.table(st.From)
	for _, j := range st.Joins {
		w.table(j.Table)
		WalkExpr(j.On, w.exprs)
	}
	WalkExpr(st.Where, w.exprs)
	for _, g := range st.GroupBy {
		WalkExpr(g, w.exprs)
	}
	WalkExpr(st.Having, w.exprs)
	for _, o := range st.OrderBy {
		WalkExpr(o.Expr, w.exprs)
	}
}

func (w walker) table(ref TableRef) {
	if ref == nil {
		return
	}
	if w.tables != nil {
		w.tables(ref)
	}
	if sub, ok := ref.(*SubSelect); ok && sub.Select != nil {
		w.sel(sub.Select)
	}
}

// WalkExpr visits every node of an expression tree, pre-order. A nil tree or
// a nil fn visits nothing.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil || fn == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *InExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *LikeExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *CaseExpr:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.When, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	}
}
