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

// explainSelect plans a SELECT and renders the plan values the executor
// would run: one line per FROM source, a `join:` line per join (its
// joinPlan), a residual-filter line when conjuncts survive above the joins,
// and a `group:` line for an aggregating statement. The `parallel` and
// partition figures are the shape of the leading source, which every stage
// above it inherits.
func (db *Database) explainSelect(stmt *sqlparser.SelectStmt, env *execEnv) ([]string, error) {
	an := analyzeSelect(stmt)
	plan, err := db.planInput(stmt, an, env)
	if err != nil {
		return nil, err
	}
	if stmt.From == nil {
		return []string{"no table: constant row"}, nil
	}
	var lines []string
	if !plan.live {
		lines = append(lines, "constant WHERE conjunct is false: empty result")
	}
	workers, parts := 1, 1
	for i, src := range plan.srcs {
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
		extras, w, p := db.explainScan(src)
		lines = append(lines, fmt.Sprintf("%s: %s%s", src.label, display, extras))
		if i == 0 {
			workers, parts = w, p
			continue
		}
		line := "join: " + plan.joins[i-1].String()
		if workers > 1 {
			line += fmt.Sprintf(", parallel: %d workers", workers)
		}
		lines = append(lines, line)
	}
	if n := len(plan.residual); n > 0 {
		lines = append(lines, fmt.Sprintf("residual filter: %d conjunct(s)", n))
	}
	if an.grouped {
		p, err := compileProjector(stmt, an, plan.cols, env)
		if err != nil {
			return nil, err
		}
		if p.distinctAgg() {
			lines = append(lines, "group: serial: DISTINCT aggregate")
		} else {
			lines = append(lines, fmt.Sprintf("group: fold over %d partitions", parts))
		}
	}
	return lines, nil
}

// explainScan plans one source the way openSource would open it — without
// reading it — and returns its shape plus the physical-scan annotations of a
// named table: zone-map page skipping (when sargable bounds reached the
// store) and, for a parallel full scan, the worker count and the morsel
// partitions the pruned row space splits into.
func (db *Database) explainScan(src *srcState) (extras string, workers, parts int) {
	if src.store == nil {
		rs := newRowSet(src.rows, db.parWorkers())
		return "", rs.workers, rs.parts
	}
	ts := db.planScan(src, db.parWorkers())
	defer ts.release()
	if len(src.zoneBounds) > 0 {
		extras += fmt.Sprintf(", zone maps: %d/%d pages skipped", ts.skipped, ts.read+ts.skipped)
	}
	if !src.fullScan() {
		return extras, 1, 1 // an index path feeds one partition
	}
	if ts.workers > 1 {
		extras += fmt.Sprintf(", parallel: %d workers, %d partitions", ts.workers, ts.parts)
	}
	return extras, ts.workers, ts.parts
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
		if s.db.planHint().FullScan {
			display = "full scan (forced)"
		}
		return fmt.Sprintf("%s %s: %s", verb, tbl.Name, display), nil
	}
	return fmt.Sprintf("%s %s: %s", verb, tbl.Name, path.display), nil
}
