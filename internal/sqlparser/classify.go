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
	WalkStatementExprs(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Index+1 > n {
			n = p.Index + 1
		}
	})
	return n
}

// ParamNames returns the statement's parameter names by slot index: the
// lower-cased ':name' of each slot for named statements, empty strings for
// positional '?' statements (and an all-empty slice when the styles are
// absent). len(ParamNames(stmt)) == NumPlaceholders(stmt).
func ParamNames(stmt Statement) []string {
	names := make([]string, NumPlaceholders(stmt))
	WalkStatementExprs(stmt, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Name != "" {
			names[p.Index] = p.Name
		}
	})
	return names
}

// WalkStatementExprs visits every expression node reachable from a
// statement: projections, FROM sources (recursing into sub-selects), join
// conditions, WHERE/GROUP BY/HAVING/ORDER BY, DML values and assignments,
// and column DEFAULT expressions.
func WalkStatementExprs(stmt Statement, fn func(Expr)) {
	walkAll := func(e Expr) { walkExprTree(e, fn) }
	switch st := stmt.(type) {
	case *SelectStmt:
		walkSelectExprs(st, fn)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				walkAll(e)
			}
		}
		if st.Select != nil {
			walkSelectExprs(st.Select, fn)
		}
	case *UpdateStmt:
		for _, a := range st.Set {
			walkAll(a.Value)
		}
		walkAll(st.Where)
	case *DeleteStmt:
		walkAll(st.Where)
	case *CreateTableStmt:
		for _, col := range st.Columns {
			walkAll(col.Default)
		}
		if st.AsSelect != nil {
			walkSelectExprs(st.AsSelect, fn)
		}
	case *AlterTableStmt:
		if st.AddColumn != nil {
			walkAll(st.AddColumn.Default)
		}
	case *ExplainStmt:
		WalkStatementExprs(st.Stmt, fn)
	}
}

func walkSelectExprs(st *SelectStmt, fn func(Expr)) {
	for _, item := range st.Columns {
		walkExprTree(item.Expr, fn)
	}
	walkTableRefExprs(st.From, fn)
	for _, j := range st.Joins {
		walkTableRefExprs(j.Table, fn)
		walkExprTree(j.On, fn)
	}
	walkExprTree(st.Where, fn)
	for _, g := range st.GroupBy {
		walkExprTree(g, fn)
	}
	walkExprTree(st.Having, fn)
	for _, o := range st.OrderBy {
		walkExprTree(o.Expr, fn)
	}
}

func walkTableRefExprs(ref TableRef, fn func(Expr)) {
	if sub, ok := ref.(*SubSelect); ok && sub.Select != nil {
		walkSelectExprs(sub.Select, fn)
	}
}

// walkExprTree visits every node of an expression tree (nil-safe). It is the
// parser-side twin of the executor's walker, kept here so statement-level
// tools (placeholder counting, classification) need no executor import.
func walkExprTree(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExprTree(x.Left, fn)
		walkExprTree(x.Right, fn)
	case *UnaryExpr:
		walkExprTree(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExprTree(a, fn)
		}
	case *InExpr:
		walkExprTree(x.X, fn)
		for _, a := range x.List {
			walkExprTree(a, fn)
		}
	case *IsNullExpr:
		walkExprTree(x.X, fn)
	case *BetweenExpr:
		walkExprTree(x.X, fn)
		walkExprTree(x.Lo, fn)
		walkExprTree(x.Hi, fn)
	case *LikeExpr:
		walkExprTree(x.X, fn)
		walkExprTree(x.Pattern, fn)
	case *CaseExpr:
		walkExprTree(x.Operand, fn)
		for _, w := range x.Whens {
			walkExprTree(w.When, fn)
			walkExprTree(w.Then, fn)
		}
		walkExprTree(x.Else, fn)
	}
}
