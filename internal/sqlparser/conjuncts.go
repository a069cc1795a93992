package sqlparser

// SplitConjuncts flattens a boolean expression into its AND-ed conjuncts:
// "a AND (b AND c)" yields [a, b, c], and any expression that is not an AND
// yields itself as the single conjunct. A nil expression yields nil. The
// executor uses the split to push sargable conjuncts below joins and into
// table scans independently of the rest of the WHERE clause.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}
