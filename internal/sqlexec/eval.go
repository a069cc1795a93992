package sqlexec

import (
	"strings"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// SheetAccessor resolves the paper's positional constructs against the
// spreadsheet front-end: RANGEVALUE(ref) reads one cell, RANGETABLE(ref)
// exposes a sheet range as a relation. The core package provides the
// implementation; a nil accessor makes positional constructs fail with a
// clear error (e.g. when the engine is used standalone).
type SheetAccessor interface {
	// RangeValue returns the value of a single cell, identified by an
	// optionally sheet-qualified A1 reference such as "B2" or "Sheet2!B2".
	RangeValue(ref string) (sheet.Value, error)
	// RangeTable returns the column names and rows of a sheet range such
	// as "A1:D100" or "Sheet2!A1:D100". When headerRow is true the first
	// row of the range provides the column names.
	RangeTable(ref string, headerRow bool) ([]string, [][]sheet.Value, error)
}

// colDesc identifies one column of an intermediate relation.
type colDesc struct {
	table string // lower-cased table name or alias ("" when anonymous)
	name  string // lower-cased column name
	src   int    // index of the FROM source the column came from (-1 anonymous)
}

// isNull is the SQL NULL test over the unified value model.
func isNull(v sheet.Value) bool { return v.IsEmpty() }

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	// Dynamic programming over runes.
	rs, rp := []rune(s), []rune(pattern)
	// match[i][j]: does rs[:i] match rp[:j]
	prev := make([]bool, len(rp)+1)
	cur := make([]bool, len(rp)+1)
	prev[0] = true
	for j := 1; j <= len(rp); j++ {
		prev[j] = prev[j-1] && rp[j-1] == '%'
	}
	for i := 1; i <= len(rs); i++ {
		cur[0] = false
		for j := 1; j <= len(rp); j++ {
			switch rp[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && rs[i-1] == rp[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(rp)]
}

// --- expression analysis helpers ---

func isAggregateFunc(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// exprHasAggregate reports whether the expression contains an aggregate call.
func exprHasAggregate(e sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if f, ok := x.(*sqlparser.FuncCall); ok && isAggregateFunc(f.Name) {
			found = true
		}
	})
	return found
}

// exprColumnFree reports whether the expression references no columns and no
// aggregates — i.e. it is row-independent and can be evaluated once per
// execution (RANGEVALUE parameters are per-execution constants).
func exprColumnFree(e sqlparser.Expr) bool {
	free := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		switch f := x.(type) {
		case *sqlparser.ColumnRef:
			free = false
		case *sqlparser.FuncCall:
			if isAggregateFunc(f.Name) {
				free = false
			}
		}
	})
	return free
}

// exprCanError reports whether evaluating the expression can fail at
// runtime (division by zero, arithmetic or negation over non-numeric
// values, scalar-function argument errors). Conjuncts that can error are
// never pushed below a join or folded ahead of the WHERE clause: the old
// row-at-a-time evaluator would only have reached them for rows that
// survived the joins and the preceding short-circuiting conjuncts, and
// evaluating them more eagerly would turn previously-succeeding queries
// into errors. Comparisons, boolean connectives, IN/BETWEEN/LIKE/IS NULL,
// CASE, concatenation, literals, column references and RANGEVALUE are
// error-free over every value.
func exprCanError(e sqlparser.Expr) bool {
	can := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		switch f := x.(type) {
		case *sqlparser.UnaryExpr:
			if f.Op == "-" {
				if lit, ok := f.X.(*sqlparser.Literal); ok && lit.Value.IsNumber() {
					return // a negated numeric literal cannot fail
				}
			}
			can = true // "-" and NOT error on non-coercible values
		case *sqlparser.BinaryExpr:
			switch f.Op {
			case "+", "-", "*", "/", "%":
				can = true
			}
		case *sqlparser.FuncCall:
			can = true // scalar functions validate their arguments
		}
	})
	return can
}
