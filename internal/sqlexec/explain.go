package sqlexec

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// EXPLAIN. The statement is planned exactly as execution would plan it —
// same pushdown, same access-path selection — but named tables are not
// scanned. RANGETABLE and sub-select sources are still resolved (their
// schema lives in their data), so EXPLAIN of a query over sheet ranges
// needs the same spreadsheet context the query itself would.

// executeExplain renders the plan of the wrapped statement as a one-column
// relation, one line per plan element. Placeholders inside the explained
// statement take the execution's bound arguments, so EXPLAIN of a prepared
// statement shows exactly the access paths those arguments would take.
func (s *Session) executeExplain(st *sqlparser.ExplainStmt, env *execEnv) (*Result, error) {
	var lines []string
	switch inner := st.Stmt.(type) {
	case *sqlparser.SelectStmt:
		var err error
		if lines, err = s.db.explainSelect(inner, env); err != nil {
			return nil, err
		}
	case *sqlparser.UpdateStmt:
		line, err := s.explainDML("update", inner.Table, inner.Where, env)
		if err != nil {
			return nil, err
		}
		lines = []string{line}
	case *sqlparser.DeleteStmt:
		line, err := s.explainDML("delete", inner.Table, inner.Where, env)
		if err != nil {
			return nil, err
		}
		lines = []string{line}
	default:
		lines = []string{fmt.Sprintf("statement %T: no plan", inner)}
	}
	res := &Result{Columns: []string{"plan"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []sheet.Value{sheet.String_(l)})
	}
	return res, nil
}

// explainSelect plans a SELECT and renders one line per FROM source plus a
// residual-filter line when conjuncts survive above the joins.
func (db *Database) explainSelect(stmt *sqlparser.SelectStmt, env *execEnv) ([]string, error) {
	plan, err := db.planInput(stmt, analyzeSelect(stmt), env)
	if err != nil {
		return nil, err
	}
	if plan.srcs == nil {
		return []string{"no table: constant row"}, nil
	}
	var lines []string
	if !plan.live {
		lines = append(lines, "constant WHERE conjunct is false: empty result")
	}
	for _, src := range plan.srcs {
		display := ""
		switch {
		case src.path != nil:
			display = src.path.display
		case src.store == nil && src.tbl == nil:
			display = "materialised source (rangetable/subquery)"
		default:
			display = "full scan"
		}
		if n := len(src.pushed); n > 0 {
			display += fmt.Sprintf(", %d pushed filter(s)", n)
		}
		display += db.explainScanExtras(src)
		lines = append(lines, fmt.Sprintf("%s: %s", src.label, display))
	}
	if n := len(plan.residual); n > 0 {
		lines = append(lines, fmt.Sprintf("residual filter: %d conjunct(s)", n))
	}
	return lines, nil
}

// explainScanExtras renders the physical-scan annotations of one named-table
// source from the plan the scan kernel would run: zone-map page skipping
// (when sargable bounds reached the store) and, for parallel-eligible full
// scans, the worker count and the morsel partitions the pruned row space
// splits into.
func (db *Database) explainScanExtras(src *srcState) string {
	if src.store == nil {
		return ""
	}
	_, scanCols := src.scanSchema()
	ts := db.planScan(src, scanCols, db.parWorkers())
	defer ts.snap.Release()
	out := ""
	if len(src.zoneBounds) > 0 {
		out += fmt.Sprintf(", zone maps: %d/%d pages skipped", ts.skipped, ts.read+ts.skipped)
	}
	if src.fullScan() && ts.workers > 1 {
		out += fmt.Sprintf(", parallel: %d workers, %d partitions", ts.workers, len(ts.parts))
	}
	return out
}

// explainDML renders the access path UPDATE/DELETE would use to locate
// their target rows.
func (s *Session) explainDML(verb, table string, where sqlparser.Expr, env *execEnv) (string, error) {
	tbl, err := s.db.cat.MustGet(table)
	if err != nil {
		return "", err
	}
	path := s.dmlAccessPath(tbl, where, env)
	if path == nil {
		display := "full scan"
		if s.db.forceFullScan.Load() {
			display = "full scan (forced)"
		}
		return fmt.Sprintf("%s %s: %s", verb, tbl.Name, display), nil
	}
	return fmt.Sprintf("%s %s: %s", verb, tbl.Name, path.display), nil
}
