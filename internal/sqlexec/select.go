package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The streaming SELECT executor. A statement runs as a pipeline of
//
//	scan -> filter -> join -> group -> sort/limit
//
// with three properties the old materialize-everything executor lacked:
//
//   - Predicate pushdown: WHERE conjuncts that reference a single FROM
//     source are evaluated inside that source's scan, before rows are
//     copied out of the storage manager (or, for RANGETABLE and sub-select
//     sources, before rows flow into joins).
//   - Projection pruning: named tables are scanned through ScanColsRange with
//     only the referenced columns, so column and hybrid layouts never page
//     in blocks of unreferenced attribute groups.
//   - Bound evaluation: every expression is compiled once per execution
//     against its relation schema (see bind.go); per-row evaluation never
//     resolves names and never formats hash keys.

// executeSelect runs a SELECT statement to a materialised Result.
func (db *Database) executeSelect(stmt *sqlparser.SelectStmt, env *execEnv) (*Result, error) {
	return db.runSelect(stmt, analyzeSelect(stmt), env)
}

// runSelect executes a SELECT according to its cached analysis.
func (db *Database) runSelect(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv) (*Result, error) {
	rel, residual, err := db.buildInput(stmt, an, env)
	if err != nil {
		return nil, err
	}
	// Residual WHERE conjuncts (those spanning sources, or blocked by the
	// nullable side of a LEFT JOIN) filter the joined relation.
	if len(residual) > 0 {
		rel, err = db.filterResidual(rel, residual, env)
		if err != nil {
			return nil, err
		}
	}

	var out *Result
	var sortKeys [][]sheet.Value
	if an.grouped {
		out, sortKeys, err = db.projectGrouped(stmt, rel, env)
	} else {
		out, sortKeys, err = db.projectRows(stmt, rel, env)
	}
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		out, sortKeys = distinctRows(out, sortKeys)
	}
	if len(stmt.OrderBy) > 0 && sortKeys != nil {
		// The comparison sort cannot be interrupted mid-way; poll once at
		// the sort boundary so a cancelled query never starts it.
		if err := env.checkNow(); err != nil {
			return nil, err
		}
		sortResult(stmt.OrderBy, out, sortKeys)
	}
	applyLimit(stmt, out)
	return out, nil
}

// filterResidual applies the residual WHERE conjuncts to the joined
// relation.
func (db *Database) filterResidual(rel *relation, residual []sqlparser.Expr, env *execEnv) (*relation, error) {
	preds, err := compilePredicates(residual, rel.cols, env)
	if err != nil {
		return nil, err
	}
	ctx := env.newRowCtx()
	kept := rel.rows[:0]
	for _, row := range rel.rows {
		if err := env.check(); err != nil {
			return nil, err
		}
		ctx.row = row
		keep, err := allPredicates(preds, ctx)
		if err != nil {
			return nil, err
		}
		if keep {
			kept = append(kept, row)
		}
	}
	return &relation{cols: rel.cols, rows: kept}, nil
}

// --- FROM pipeline: sources, pushdown, pruning, scans, joins ---

// srcState is one FROM relation while the input pipeline is being built.
type srcState struct {
	label string
	cols  []colDesc // full schema
	store tablestore.Store
	tbl   *catalog.Table  // catalog entry (named tables)
	rows  [][]sheet.Value // materialised rows (RANGETABLE / sub-select)

	pushed    []sqlparser.Expr // conjuncts evaluated inside this source's scan
	needed    []bool           // referenced columns (named tables)
	allNeeded bool
	path      *accessPath // chosen access path (named tables)

	// zoneBounds are the sargable conjuncts in zone-map form; scans consult
	// them against per-page summaries to drop provably matchless pages.
	zoneBounds []tablestore.ZoneBound
}

func (s *srcState) mark(col int) {
	if s.needed != nil {
		s.needed[col] = true
	}
}

// inputPlan is the planned FROM clause: the sources with their pushed
// conjuncts and chosen access paths, the residual conjuncts, and whether a
// constant WHERE conjunct already emptied the result.
type inputPlan struct {
	srcs     []*srcState
	residual []sqlparser.Expr
	live     bool
}

// buildInput materialises the FROM clause: scans with pushdown, pruning and
// access-path selection, then joins. It returns the joined relation and the
// residual conjuncts.
func (db *Database) buildInput(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv) (*relation, []sqlparser.Expr, error) {
	plan, err := db.planInput(stmt, an, env)
	if err != nil {
		return nil, nil, err
	}
	if plan.srcs == nil {
		// Table-less SELECT: a single anonymous row.
		rel := &relation{}
		if plan.live {
			rel.rows = [][]sheet.Value{{}}
		}
		return rel, plan.residual, nil
	}
	left, err := db.scanSource(plan.srcs[0], plan.live, env)
	if err != nil {
		return nil, nil, err
	}
	for ji, join := range stmt.Joins {
		right, err := db.scanSource(plan.srcs[ji+1], plan.live, env)
		if err != nil {
			return nil, nil, err
		}
		left, err = db.joinRelations(left, right, join, env)
		if err != nil {
			return nil, nil, err
		}
	}
	return left, plan.residual, nil
}

// planInput resolves the FROM sources, assigns every WHERE conjunct to a
// source or the residual, and chooses each named table's access path.
func (db *Database) planInput(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv) (*inputPlan, error) {
	// Row-independent, error-free conjuncts are evaluated once per
	// execution; a false or NULL one empties the result. Once one is
	// false, the rest are skipped — WHERE short-circuits left to right.
	// Placeholders resolve against this execution's bound arguments here,
	// so the same cached statement plans fresh bounds every execution.
	live := true
	var nonConst []sqlparser.Expr
	var nonConstPush []bool
	emptyCtx := env.newRowCtx()
	for i, c := range an.conjuncts {
		if !an.constConjuncts[i] {
			nonConst = append(nonConst, c)
			nonConstPush = append(nonConstPush, an.pushable[i])
			continue
		}
		if !live {
			continue
		}
		be, err := compileExpr(c, &compileEnv{sheets: env.sheets})
		if err != nil {
			return nil, err
		}
		ok, err := evalBoundPredicate(be, emptyCtx)
		if err != nil {
			return nil, err
		}
		live = live && ok
	}

	if stmt.From == nil {
		return &inputPlan{live: live, residual: nonConst}, nil
	}

	srcs, err := db.buildSources(stmt, env)
	if err != nil {
		return nil, err
	}

	// Simulate the joined schema over the full source schemas: the final
	// column list, where each column came from, and the join key columns
	// (which count as referenced on both sides).
	accum := append([]colDesc(nil), srcs[0].cols...)
	origin := make([]srcCol, len(accum))
	for i := range accum {
		origin[i] = srcCol{src: 0, col: i}
	}
	for ji, join := range stmt.Joins {
		si := ji + 1
		right := srcs[si]
		var rightKeys []int
		switch {
		case join.Natural:
			for li, lc := range accum {
				for ri, rc := range right.cols {
					if lc.name == rc.name {
						srcs[origin[li].src].mark(origin[li].col)
						right.mark(ri)
						rightKeys = append(rightKeys, ri)
						break
					}
				}
			}
		case len(join.Using) > 0:
			for _, name := range join.Using {
				n := strings.ToLower(name)
				li, err := findColumn(accum, "", n)
				if err != nil {
					return nil, err
				}
				ri, err := findColumn(right.cols, "", n)
				if err != nil {
					return nil, err
				}
				srcs[origin[li].src].mark(origin[li].col)
				right.mark(ri)
				rightKeys = append(rightKeys, ri)
			}
		case join.On != nil:
			combined := append(append([]colDesc(nil), accum...), right.cols...)
			comboOrigin := make([]srcCol, 0, len(origin)+len(right.cols))
			comboOrigin = append(comboOrigin, origin...)
			for ri := range right.cols {
				comboOrigin = append(comboOrigin, srcCol{src: si, col: ri})
			}
			markRefs(join.On, combined, comboOrigin, srcs)
		}
		dropRight := make(map[int]bool, len(rightKeys))
		for _, ri := range rightKeys {
			dropRight[ri] = true
		}
		for ri, rc := range right.cols {
			if dropRight[ri] {
				continue
			}
			accum = append(accum, rc)
			origin = append(origin, srcCol{src: si, col: ri})
		}
	}

	// Mark every column the statement references against the final schema.
	for _, item := range stmt.Columns {
		switch {
		case item.Star && item.TableStar == "":
			for _, s := range srcs {
				s.allNeeded = true
			}
		case item.Star:
			q := strings.ToLower(item.TableStar)
			for i, c := range accum {
				if c.table == q {
					srcs[origin[i].src].mark(origin[i].col)
				}
			}
		default:
			markRefs(item.Expr, accum, origin, srcs)
		}
	}
	for _, g := range stmt.GroupBy {
		markRefs(g, accum, origin, srcs)
	}
	if an.grouped && stmt.Having != nil {
		markRefs(stmt.Having, accum, origin, srcs)
	}
	for _, o := range stmt.OrderBy {
		markRefs(o.Expr, accum, origin, srcs)
	}

	// Assign each non-constant conjunct: pushed into the single source it
	// references when it cannot error and that source is not on the
	// nullable side of a LEFT JOIN, residual otherwise.
	var residual []sqlparser.Expr
	for i, c := range nonConst {
		markRefs(c, accum, origin, srcs)
		src, ok := conjunctSource(c, accum, origin)
		if ok && nonConstPush[i] && (src == 0 || stmt.Joins[src-1].Type != sqlparser.JoinLeft) {
			srcs[src].pushed = append(srcs[src].pushed, c)
		} else {
			residual = append(residual, c)
		}
	}

	// Choose each named table's access path from its pushed conjuncts. The
	// first source may additionally satisfy the statement's ORDER BY from
	// index order — and stop early under a LIMIT — when nothing downstream
	// (joins, residual filters, grouping, DISTINCT) can reorder or drop
	// rows behind the scan's back.
	for i, s := range srcs {
		if s.store == nil || s.tbl == nil {
			continue
		}
		ord := noOrder
		if i == 0 && len(stmt.Joins) == 0 && len(residual) == 0 && !an.grouped && !stmt.Distinct {
			ord = orderRequest(stmt, s)
		}
		s.path = db.chooseAccessPath(s.tbl, s.cols, s.pushed, env, ord)
		// Zone-map bounds come from the same sarg extraction the access path
		// uses; skipping stays valid whichever path wins, because both the
		// full scan and index fetches re-evaluate the pushed conjuncts.
		if !db.forceNoSkip.Load() {
			s.zoneBounds = zoneBoundsOf(extractSargs(s.pushed, s.cols, s.tbl, env))
		}
	}
	return &inputPlan{srcs: srcs, residual: residual, live: live}, nil
}

// orderRequest resolves the leading ORDER BY term against a source: the
// request carries the source column it names (or -1), the direction, and
// the LIMIT+OFFSET row budget that permits an early exit.
func orderRequest(stmt *sqlparser.SelectStmt, s *srcState) orderReq {
	if len(stmt.OrderBy) == 0 {
		return noOrder
	}
	cr, ok := stmt.OrderBy[0].Expr.(*sqlparser.ColumnRef)
	if !ok {
		return noOrder
	}
	col, err := findColumn(s.cols, strings.ToLower(cr.Table), strings.ToLower(cr.Name))
	if err != nil {
		return noOrder
	}
	ord := orderReq{col: col, desc: stmt.OrderBy[0].Desc, multi: len(stmt.OrderBy) > 1}
	if stmt.Limit != nil {
		ord.limit = *stmt.Limit
		if stmt.Offset != nil {
			ord.limit += *stmt.Offset
		}
	}
	return ord
}

// srcCol locates a joined-schema column inside its FROM source.
type srcCol struct {
	src, col int
}

// markRefs marks every column an expression references. Ambiguous names
// mark all candidates, so pruning preserves the ambiguity for the binding
// stage to report; unknown names are left for binding to report too.
func markRefs(e sqlparser.Expr, accum []colDesc, origin []srcCol, srcs []*srcState) {
	walkExpr(e, func(x sqlparser.Expr) {
		cr, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return
		}
		table, name := strings.ToLower(cr.Table), strings.ToLower(cr.Name)
		for i, c := range accum {
			if c.name == name && (table == "" || c.table == table) {
				srcs[origin[i].src].mark(origin[i].col)
			}
		}
	})
}

// conjunctSource resolves every column reference of a conjunct against the
// joined schema and reports the single source they all belong to. It
// returns false when any reference is unknown or ambiguous, or when the
// references span sources.
func conjunctSource(e sqlparser.Expr, accum []colDesc, origin []srcCol) (int, bool) {
	src, ok := -1, true
	walkExpr(e, func(x sqlparser.Expr) {
		cr, isRef := x.(*sqlparser.ColumnRef)
		if !isRef || !ok {
			return
		}
		table, name := strings.ToLower(cr.Table), strings.ToLower(cr.Name)
		found := -1
		for i, c := range accum {
			if c.name == name && (table == "" || c.table == table) {
				if found >= 0 {
					ok = false // ambiguous: leave for the binding stage
					return
				}
				found = i
			}
		}
		if found < 0 {
			ok = false // unknown: leave for the binding stage
			return
		}
		s := origin[found].src
		if src >= 0 && src != s {
			ok = false // spans sources
			return
		}
		src = s
	})
	if src < 0 {
		return 0, false
	}
	return src, ok
}

// buildSources resolves the schema of every FROM relation. RANGETABLE and
// sub-select sources materialise their rows here; named tables are scanned
// later, after pushdown and pruning are decided.
func (db *Database) buildSources(stmt *sqlparser.SelectStmt, env *execEnv) ([]*srcState, error) {
	refs := make([]sqlparser.TableRef, 0, 1+len(stmt.Joins))
	refs = append(refs, stmt.From)
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	srcs := make([]*srcState, len(refs))
	for i, ref := range refs {
		s := &srcState{}
		switch t := ref.(type) {
		case *sqlparser.TableName:
			tbl, err := db.cat.MustGet(t.Name)
			if err != nil {
				return nil, err
			}
			s.label = strings.ToLower(t.Name)
			if t.Alias != "" {
				s.label = strings.ToLower(t.Alias)
			}
			s.tbl = tbl
			for _, c := range tbl.Columns {
				s.cols = append(s.cols, colDesc{table: s.label, name: strings.ToLower(c.Name), src: i})
			}
			if s.store, err = db.store(t.Name); err != nil {
				return nil, err
			}
			s.needed = make([]bool, len(s.cols))
		case *sqlparser.RangeTableRef:
			if env.sheets == nil {
				return nil, fmt.Errorf("sqlexec: RANGETABLE requires a spreadsheet context: %w", dberr.ErrUnsupported)
			}
			names, rows, err := env.sheets.RangeTable(t.Ref, t.HeaderRow)
			if err != nil {
				return nil, err
			}
			s.label = strings.ToLower(t.Alias)
			s.rows = rows
			s.allNeeded = true
			for _, n := range names {
				s.cols = append(s.cols, colDesc{table: s.label, name: strings.ToLower(n), src: i})
			}
		case *sqlparser.SubSelect:
			res, err := db.executeSelect(t.Select, env)
			if err != nil {
				return nil, err
			}
			s.label = strings.ToLower(t.Alias)
			s.rows = res.Rows
			s.allNeeded = true
			for _, n := range res.Columns {
				s.cols = append(s.cols, colDesc{table: s.label, name: strings.ToLower(n), src: i})
			}
		default:
			return nil, fmt.Errorf("sqlexec: unsupported table reference %T: %w", ref, dberr.ErrUnsupported)
		}
		srcs[i] = s
	}
	return srcs, nil
}

// scanSchema resolves the physical column subset projection pruning chose
// for a named-table source: scanCols stays nil only for a full-width scan; a
// source with NO referenced columns (e.g. COUNT(*), or a bare existence
// join) scans with an explicit empty subset so the relation's zero-width
// schema matches its rows.
func (s *srcState) scanSchema() (cols []colDesc, scanCols []int) {
	cols = s.cols
	if s.store == nil || s.allNeeded {
		return cols, nil
	}
	all := true
	for _, n := range s.needed {
		if !n {
			all = false
			break
		}
	}
	if all {
		return cols, nil
	}
	scanCols = []int{}
	cols = []colDesc{}
	for i, n := range s.needed {
		if n {
			scanCols = append(scanCols, i)
			cols = append(cols, s.cols[i])
		}
	}
	return cols, scanCols
}

// fullScan reports whether a named-table source is read by scanning the
// table rather than through an index access path.
func (s *srcState) fullScan() bool { return s.path == nil || s.path.kind == pathFull }

// scanSource turns one FROM source into a relation with only the needed
// columns and the pushed predicates applied: named tables go through the
// table-scan kernel (scanTable) or their index access path, materialised
// sources are filtered in place. live=false short-circuits to an empty
// relation (a constant WHERE conjunct was false).
func (db *Database) scanSource(s *srcState, live bool, env *execEnv) (*relation, error) {
	cols, scanCols := s.scanSchema()
	rel := &relation{cols: cols}
	if !live {
		return rel, nil
	}
	if s.store == nil && len(s.pushed) == 0 {
		// RANGETABLE / sub-select with nothing pushed: adopt the rows as-is.
		rel.rows = s.rows
		return rel, nil
	}
	if s.store != nil && s.fullScan() {
		return db.scanTable(s, cols, scanCols, env)
	}
	// Predicates are compiled — RANGEVALUE folds included — before the
	// engine lock is taken.
	preds, err := compilePredicates(s.pushed, cols, env)
	if err != nil {
		return nil, err
	}
	// Materialised rows and index point reads both survive the callback.
	keep := func(row []sheet.Value) error {
		rel.rows = append(rel.rows, row)
		return nil
	}
	if s.store == nil {
		err = filterRows(s.rows, preds, env, keep)
	} else {
		// Materialising holds the read lock for the whole index walk, so
		// the relation is one consistent image (the streaming path trades
		// that for read-committed batches; see streamSimpleSelect).
		db.mu.RLock()
		err = db.scanIndexPath(s, preds, scanCols, env, keep)
		db.mu.RUnlock()
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// scanTable materialises a full table scan through the kernel (scan.go)
// with the worker pool: each puller filters its morsels with its own
// compiled predicate tree, and the per-morsel outputs concatenate in
// partition order (= serial scan order), so the relation is row-for-row the
// same at every worker count.
func (db *Database) scanTable(s *srcState, cols []colDesc, scanCols []int, env *execEnv) (*relation, error) {
	ts := db.openScan(s, scanCols, db.parWorkers())
	defer ts.snap.Release()
	// One predicate compile per puller, sequentially: compilation may fold
	// RANGEVALUE through the shared sheet accessor, and the resulting trees
	// carry per-tree scratch.
	preds := make([][]boundExpr, ts.workers)
	for w := range preds {
		var err error
		if preds[w], err = compilePredicates(s.pushed, cols, env); err != nil {
			return nil, err
		}
	}
	results := make([][][]sheet.Value, len(ts.parts))
	err := parRun(ts.workers, func(w int) error {
		// Kept rows collect in a puller-local slice, filed under their
		// partition when the puller moves on: appending to results[part]
		// row by row would bounce the cache lines of adjacent slice headers
		// between pullers.
		var arena valueArena
		var out [][]sheet.Value
		cur := -1
		file := func() {
			if cur >= 0 {
				results[cur] = out
			}
		}
		err := ts.pull(preds[w], env, func(part int, row []sheet.Value) error {
			if part != cur {
				file()
				cur, out = part, nil
			}
			if !ts.stable {
				row = arena.clone(row)
			}
			out = append(out, row)
			return nil
		})
		file()
		return err
	})
	if err != nil {
		return nil, err
	}
	rel := &relation{cols: cols}
	if len(results) == 1 {
		rel.rows = results[0]
		return rel, nil
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	rel.rows = make([][]sheet.Value, 0, total)
	for _, rs := range results {
		rel.rows = append(rel.rows, rs...)
	}
	return rel, nil
}

// scanIndexPath streams a source through its index access path: candidate
// RowIDs come from the B-tree and each is fetched and re-checked by
// fetchCandidate. Non-ordered paths emit in RowID order (the full scan's
// order); ordered paths emit in index order and may stop early.
// dslint:requires(engine)
func (db *Database) scanIndexPath(s *srcState, preds []boundExpr, fetchCols []int, env *execEnv, emit func(row []sheet.Value) error) error {
	table := s.tbl.Name
	ctx := env.newRowCtx()
	emitted := 0
	keep := func(id tablestore.RowID) error {
		if err := env.check(); err != nil {
			return err
		}
		row, ok, err := fetchCandidate(s, id, fetchCols, preds, ctx)
		if err != nil || !ok {
			return err
		}
		emitted++
		return emit(row)
	}
	if !s.path.ordered {
		ids, err := db.collectPathIDsLocked(table, s.path)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := keep(id); err != nil {
				return err
			}
		}
		return nil
	}
	var keepErr error
	err := db.walkPathOrdered(table, s.path, func(id tablestore.RowID) bool {
		if keepErr = keep(id); keepErr != nil {
			return false
		}
		return s.path.earlyLimit <= 0 || emitted < s.path.earlyLimit
	})
	if keepErr != nil {
		return keepErr
	}
	return err
}

func compilePredicates(conjuncts []sqlparser.Expr, cols []colDesc, env *execEnv) ([]boundExpr, error) {
	if len(conjuncts) == 0 {
		return nil, nil
	}
	cenv := env.compileEnv(cols)
	preds := make([]boundExpr, len(conjuncts))
	var err error
	for i, c := range conjuncts {
		if preds[i], err = compileExpr(c, cenv); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

func allPredicates(preds []boundExpr, ctx *rowCtx) (bool, error) {
	for _, p := range preds {
		ok, err := evalBoundPredicate(p, ctx)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// --- joins ---

// joinRelations combines two relations according to the join specification.
// Hash joins build a typed-key index over the right side; candidate rows
// are assembled in a reused scratch buffer and only copied when they join.
// Large hash joins fan out over the worker pool: the build side is indexed
// in contiguous partitions and probe workers walk the partition indexes in
// order, reproducing the serial single-index output row for row.
func (db *Database) joinRelations(left, right *relation, join sqlparser.Join, env *execEnv) (*relation, error) {
	// Determine equi-join column pairs for NATURAL / USING joins.
	var leftKeys, rightKeys []int
	switch {
	case join.Natural:
		for li, lc := range left.cols {
			for ri, rc := range right.cols {
				if lc.name == rc.name {
					leftKeys = append(leftKeys, li)
					rightKeys = append(rightKeys, ri)
					break
				}
			}
		}
	case len(join.Using) > 0:
		for _, name := range join.Using {
			n := strings.ToLower(name)
			li, err := left.columnIndex("", n)
			if err != nil {
				return nil, err
			}
			ri, err := right.columnIndex("", n)
			if err != nil {
				return nil, err
			}
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
		}
	}

	// For NATURAL / USING joins the shared columns appear once in the
	// output (standard SQL semantics); the right-hand copies are dropped.
	dropRight := make(map[int]bool, len(rightKeys))
	for _, ri := range rightKeys {
		dropRight[ri] = true
	}
	projectRight := func(rrow []sheet.Value) []sheet.Value {
		if len(dropRight) == 0 {
			return rrow
		}
		out := make([]sheet.Value, 0, len(rrow)-len(dropRight))
		for i, v := range rrow {
			if !dropRight[i] {
				out = append(out, v)
			}
		}
		return out
	}
	out := &relation{cols: append([]colDesc(nil), left.cols...)}
	for i, c := range right.cols {
		if !dropRight[i] {
			out.cols = append(out.cols, c)
		}
	}

	pad := make([]sheet.Value, len(right.cols)-len(dropRight))
	leftWidth := len(left.cols)

	switch {
	case len(leftKeys) > 0:
		// Hash join on the shared columns.
		if workers, ok := db.parHashJoinEligible(left, right); ok {
			rows, err := parHashJoinKeyed(left, right, leftKeys, rightKeys, join.Type, pad, projectRight, workers, env)
			if err != nil {
				return nil, err
			}
			out.rows = rows
			return out, nil
		}
		ix := newKeyIndex(len(rightKeys))
		keyBuf := make([]normValue, 0, len(rightKeys))
		for ri, row := range right.rows {
			if err := env.check(); err != nil {
				return nil, err
			}
			keyBuf = normalizeRowKey(keyBuf, row, rightKeys)
			slot, _ := ix.getOrAdd(keyBuf)
			ix.addRow(slot, ri)
		}
		for _, lrow := range left.rows {
			if err := env.check(); err != nil {
				return nil, err
			}
			keyBuf = normalizeRowKey(keyBuf, lrow, leftKeys)
			slot := ix.lookup(keyBuf)
			if slot < 0 {
				if join.Type == sqlparser.JoinLeft {
					out.rows = append(out.rows, concatRows(lrow, pad))
				}
				continue
			}
			for _, ri := range ix.matches(slot) {
				out.rows = append(out.rows, concatRows(lrow, projectRight(right.rows[ri])))
			}
		}
	case join.On != nil:
		// Try to extract equi-join keys from the ON condition for a hash
		// join; otherwise fall back to a nested loop. Either way the ON
		// predicate is compiled once against the combined schema and
		// candidate rows are staged in a reused scratch buffer.
		on, err := compileExpr(join.On, env.compileEnv(out.cols))
		if err != nil {
			return nil, err
		}
		ctx := env.newRowCtx()
		scratch := make([]sheet.Value, len(left.cols)+len(right.cols))
		lk, rk := equiJoinKeys(join.On, left, right)
		if len(lk) > 0 {
			if workers, ok := db.parHashJoinEligible(left, right); ok {
				rows, err := parHashJoinOn(left, right, lk, rk, join, out.cols, pad, workers, env)
				if err != nil {
					return nil, err
				}
				out.rows = rows
				return out, nil
			}
		}
		if len(lk) > 0 {
			ix := newKeyIndex(len(rk))
			keyBuf := make([]normValue, 0, len(rk))
			for ri, row := range right.rows {
				if err := env.check(); err != nil {
					return nil, err
				}
				keyBuf = normalizeRowKey(keyBuf, row, rk)
				slot, _ := ix.getOrAdd(keyBuf)
				ix.addRow(slot, ri)
			}
			for _, lrow := range left.rows {
				if err := env.check(); err != nil {
					return nil, err
				}
				keyBuf = normalizeRowKey(keyBuf, lrow, lk)
				matched := false
				if slot := ix.lookup(keyBuf); slot >= 0 {
					copy(scratch, lrow)
					for _, ri := range ix.matches(slot) {
						copy(scratch[leftWidth:], right.rows[ri])
						ctx.row = scratch
						keep, err := evalBoundPredicate(on, ctx)
						if err != nil {
							return nil, err
						}
						if keep {
							out.rows = append(out.rows, concatRows(lrow, right.rows[ri]))
							matched = true
						}
					}
				}
				if !matched && join.Type == sqlparser.JoinLeft {
					out.rows = append(out.rows, concatRows(lrow, pad))
				}
			}
		} else {
			for _, lrow := range left.rows {
				matched := false
				copy(scratch, lrow)
				for _, rrow := range right.rows {
					if err := env.check(); err != nil {
						return nil, err
					}
					copy(scratch[leftWidth:], rrow)
					ctx.row = scratch
					keep, err := evalBoundPredicate(on, ctx)
					if err != nil {
						return nil, err
					}
					if keep {
						out.rows = append(out.rows, concatRows(lrow, rrow))
						matched = true
					}
				}
				if !matched && join.Type == sqlparser.JoinLeft {
					out.rows = append(out.rows, concatRows(lrow, pad))
				}
			}
		}
	default:
		// Cross join (or inner join without a condition).
		for _, lrow := range left.rows {
			if err := env.check(); err != nil {
				return nil, err
			}
			for _, rrow := range right.rows {
				if err := env.check(); err != nil {
					return nil, err
				}
				out.rows = append(out.rows, concatRows(lrow, rrow))
			}
		}
	}
	return out, nil
}

// equiJoinKeys extracts column index pairs from an ON condition that is a
// conjunction of equality comparisons between a left column and a right
// column. It returns empty slices when the condition has any other shape.
func equiJoinKeys(on sqlparser.Expr, left, right *relation) (lk, rk []int) {
	var conjuncts []sqlparser.Expr
	var collect func(e sqlparser.Expr) bool
	collect = func(e sqlparser.Expr) bool {
		if b, ok := e.(*sqlparser.BinaryExpr); ok {
			if b.Op == "AND" {
				return collect(b.Left) && collect(b.Right)
			}
			if b.Op == "=" {
				conjuncts = append(conjuncts, b)
				return true
			}
		}
		return false
	}
	if !collect(on) {
		return nil, nil
	}
	for _, c := range conjuncts {
		b := c.(*sqlparser.BinaryExpr)
		lcol, lok := b.Left.(*sqlparser.ColumnRef)
		rcol, rok := b.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			return nil, nil
		}
		li, lerr := left.columnIndex(lcol.Table, lcol.Name)
		ri, rerr := right.columnIndex(rcol.Table, rcol.Name)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		// Maybe the columns are written in the other order.
		li, lerr = left.columnIndex(rcol.Table, rcol.Name)
		ri, rerr = right.columnIndex(lcol.Table, lcol.Name)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		return nil, nil
	}
	return lk, rk
}

func concatRows(a, b []sheet.Value) []sheet.Value {
	out := make([]sheet.Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// --- projection ---

// expandItems resolves stars into concrete select items and returns the
// output column names.
func expandItems(stmt *sqlparser.SelectStmt, rel *relation) ([]sqlparser.SelectItem, []string) {
	var items []sqlparser.SelectItem
	var names []string
	for _, item := range stmt.Columns {
		if item.Star {
			for _, c := range rel.cols {
				if item.TableStar != "" && c.table != strings.ToLower(item.TableStar) {
					continue
				}
				items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: c.table, Name: c.name}})
				names = append(names, c.name)
			}
			continue
		}
		items = append(items, item)
		names = append(names, outputName(item, len(names)))
	}
	return items, names
}

func outputName(item sqlparser.SelectItem, idx int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return strings.ToLower(e.Name)
	case *sqlparser.FuncCall:
		return strings.ToLower(e.Name)
	default:
		return fmt.Sprintf("col%d", idx+1)
	}
}

// orderPlan is the compiled form of one ORDER BY term: either an output
// column (positional reference or output alias) or a bound expression over
// the input row.
type orderPlan struct {
	outCol int // >= 0: key is output column outCol
	expr   boundExpr
}

// buildOrderPlans compiles the ORDER BY terms. A term may reference an
// output position (1-based integer literal), an output alias, or any
// expression over the input schema (compiled in env, which carries the
// aggregate registry in grouped mode).
func buildOrderPlans(stmt *sqlparser.SelectStmt, itemCount int, names []string, rel *relation, env *compileEnv) ([]orderPlan, error) {
	if len(stmt.OrderBy) == 0 {
		return nil, nil
	}
	plans := make([]orderPlan, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		plans[i].outCol = -1
		// Positional reference: ORDER BY 2.
		if lit, ok := o.Expr.(*sqlparser.Literal); ok && lit.Value.IsNumber() {
			idx := int(lit.Value.Num) - 1
			if idx >= 0 && idx < itemCount {
				plans[i].outCol = idx
				continue
			}
		}
		// Output alias reference.
		if cr, ok := o.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			if _, err := findColumn(rel.cols, "", strings.ToLower(cr.Name)); err != nil {
				aliased := false
				for j, name := range names {
					if strings.EqualFold(name, cr.Name) && j < itemCount {
						plans[i].outCol = j
						aliased = true
						break
					}
				}
				if aliased {
					continue
				}
			}
		}
		be, err := compileExpr(o.Expr, env)
		if err != nil {
			return nil, err
		}
		plans[i].expr = be
	}
	return plans, nil
}

// evalOrderKeys computes the sort key vector for one output row into keys,
// which must have len(plans) entries.
func evalOrderKeys(plans []orderPlan, ctx *rowCtx, outRow []sheet.Value, keys []sheet.Value) ([]sheet.Value, error) {
	for i, p := range plans {
		if p.outCol >= 0 {
			if p.outCol < len(outRow) {
				keys[i] = outRow[p.outCol]
			}
			continue
		}
		v, err := p.expr.eval(ctx)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// projectRows projects a non-aggregated SELECT, streaming rows through the
// compiled projection. With ORDER BY ... LIMIT (and no DISTINCT) a top-K
// heap keeps only the surviving rows instead of sorting the full input.
func (db *Database) projectRows(stmt *sqlparser.SelectStmt, rel *relation, env *execEnv) (*Result, [][]sheet.Value, error) {
	items, names := expandItems(stmt, rel)
	cenv := env.compileEnv(rel.cols)
	bound := make([]boundExpr, len(items))
	var err error
	for i, item := range items {
		if bound[i], err = compileExpr(item.Expr, cenv); err != nil {
			return nil, nil, err
		}
	}
	orderPlans, err := buildOrderPlans(stmt, len(items), names, rel, cenv)
	if err != nil {
		return nil, nil, err
	}

	res := &Result{Columns: names}
	var topK *topKHeap
	if len(orderPlans) > 0 && stmt.Limit != nil && !stmt.Distinct {
		k := *stmt.Limit
		if stmt.Offset != nil {
			k += *stmt.Offset
		}
		topK = newTopKHeap(stmt.OrderBy, k)
	}

	ctx := env.newRowCtx()
	var arena valueArena
	var sortKeys [][]sheet.Value
	if topK == nil {
		res.Rows = make([][]sheet.Value, 0, len(rel.rows))
		if orderPlans != nil {
			sortKeys = make([][]sheet.Value, 0, len(rel.rows))
		}
	}
	for seq, row := range rel.rows {
		if err := env.check(); err != nil {
			return nil, nil, err
		}
		ctx.row = row
		out := arena.take(len(bound))
		for i, be := range bound {
			v, err := be.eval(ctx)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
		}
		if orderPlans == nil {
			res.Rows = append(res.Rows, out)
			continue
		}
		keys, err := evalOrderKeys(orderPlans, ctx, out, arena.take(len(orderPlans)))
		if err != nil {
			return nil, nil, err
		}
		if topK != nil {
			topK.offer(out, keys, seq)
			continue
		}
		res.Rows = append(res.Rows, out)
		sortKeys = append(sortKeys, keys)
	}
	if topK != nil {
		// Only the K surviving rows reach the final stable sort.
		rows, keys := topK.finish()
		res.Rows = rows
		return res, keys, nil
	}
	return res, sortKeys, nil
}

// groupState accumulates one GROUP BY group: the representative input row
// (for grouping-column projection) and the aggregate accumulators.
type groupState struct {
	rep    []sheet.Value
	hasRep bool
	accs   []aggState
}

// projectGrouped projects an aggregated SELECT (explicit GROUP BY or
// implicit single-group aggregation) in a single streaming pass: rows are
// hashed to their group by typed keys and folded into per-group aggregate
// accumulators; no group retains its member rows.
func (db *Database) projectGrouped(stmt *sqlparser.SelectStmt, rel *relation, env *execEnv) (*Result, [][]sheet.Value, error) {
	items, names := expandItems(stmt, rel)
	reg := &aggRegistry{}
	cenv := env.compileEnv(rel.cols)
	cenv.aggs = reg
	bound := make([]boundExpr, len(items))
	var err error
	for i, item := range items {
		if bound[i], err = compileExpr(item.Expr, cenv); err != nil {
			return nil, nil, err
		}
	}
	var bHaving boundExpr
	if stmt.Having != nil {
		if bHaving, err = compileExpr(stmt.Having, cenv); err != nil {
			return nil, nil, err
		}
	}
	orderPlans, err := buildOrderPlans(stmt, len(items), names, rel, cenv)
	if err != nil {
		return nil, nil, err
	}
	// GROUP BY expressions evaluate per input row; aggregates inside them
	// are invalid.
	rowEnv := env.compileEnv(rel.cols)
	groupBy := make([]boundExpr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if groupBy[i], err = compileExpr(g, rowEnv); err != nil {
			return nil, nil, err
		}
	}

	// Partition rows into groups, folding aggregates as rows stream by.
	// Large inputs fold in parallel — per-worker group hashes merged in
	// partition order — unless a DISTINCT aggregate forces the serial path.
	groups, parallel, err := db.parFoldGroups(stmt, items, rel, reg, env)
	if err != nil {
		return nil, nil, err
	}
	if !parallel {
		newGroup := func() *groupState {
			return &groupState{accs: make([]aggState, len(reg.specs))}
		}
		ctx := env.newRowCtx()
		var ix *keyIndex
		var keyBuf []normValue
		if len(groupBy) == 0 {
			// Implicit single group: aggregates over an empty input still
			// produce one output row (e.g. COUNT(*) = 0).
			groups = append(groups, newGroup())
		} else {
			ix = newKeyIndex(len(groupBy))
			keyBuf = make([]normValue, 0, len(groupBy))
		}
		for _, row := range rel.rows {
			if err := env.check(); err != nil {
				return nil, nil, err
			}
			ctx.row = row
			var g *groupState
			if ix == nil {
				g = groups[0]
			} else {
				keyBuf = keyBuf[:0]
				for _, ge := range groupBy {
					v, err := ge.eval(ctx)
					if err != nil {
						return nil, nil, err
					}
					keyBuf = append(keyBuf, normKeyValue(v))
				}
				slot, added := ix.getOrAdd(keyBuf)
				if added {
					groups = append(groups, newGroup())
				}
				g = groups[slot]
			}
			if !g.hasRep {
				g.rep, g.hasRep = row, true
			}
			for i, sp := range reg.specs {
				if err := sp.update(&g.accs[i], ctx); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	res := &Result{Columns: names}
	var sortKeys [][]sheet.Value
	for _, g := range groups {
		if err := env.check(); err != nil {
			return nil, nil, err
		}
		ctx := env.newRowCtx()
		ctx.row, ctx.aggs = g.rep, make([]sheet.Value, len(reg.specs))
		for i, sp := range reg.specs {
			ctx.aggs[i] = sp.result(&g.accs[i])
		}
		if bHaving != nil {
			keep, err := evalBoundPredicate(bHaving, ctx)
			if err != nil {
				return nil, nil, err
			}
			if !keep {
				continue
			}
		}
		out := make([]sheet.Value, len(bound))
		for i, be := range bound {
			v, err := be.eval(ctx)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
		if orderPlans != nil {
			keys, err := evalOrderKeys(orderPlans, ctx, out, make([]sheet.Value, len(orderPlans)))
			if err != nil {
				return nil, nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	return res, sortKeys, nil
}

// distinctRows deduplicates output rows by typed key, preserving first
// occurrences.
func distinctRows(res *Result, sortKeys [][]sheet.Value) (*Result, [][]sheet.Value) {
	width := 0
	if len(res.Rows) > 0 {
		width = len(res.Rows[0])
	}
	ix := newKeyIndex(width)
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	keyBuf := make([]normValue, 0, width)
	outRows := res.Rows[:0:0]
	var outKeys [][]sheet.Value
	for i, row := range res.Rows {
		keyBuf = normalizeRowKey(keyBuf, row, cols)
		if _, added := ix.getOrAdd(keyBuf); !added {
			continue
		}
		outRows = append(outRows, row)
		if sortKeys != nil {
			outKeys = append(outKeys, sortKeys[i])
		}
	}
	res.Rows = outRows
	return res, outKeys
}

// sortResult stable-sorts the output rows by their precomputed keys. Input
// that is already in order — e.g. ORDER BY an insertion-ordered key — is
// detected in one linear pass and left untouched.
func sortResult(orderBy []sqlparser.OrderItem, res *Result, sortKeys [][]sheet.Value) {
	if len(sortKeys) != len(res.Rows) {
		return
	}
	sorted := true
	for i := 1; i < len(sortKeys); i++ {
		if compareOrderKeys(orderBy, sortKeys[i-1], sortKeys[i]) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return compareOrderKeys(orderBy, sortKeys[idx[a]], sortKeys[idx[b]]) < 0
	})
	newRows := make([][]sheet.Value, len(res.Rows))
	for i, j := range idx {
		newRows[i] = res.Rows[j]
	}
	res.Rows = newRows
}

func applyLimit(stmt *sqlparser.SelectStmt, res *Result) {
	offset := 0
	if stmt.Offset != nil {
		offset = *stmt.Offset
	}
	if offset > len(res.Rows) {
		offset = len(res.Rows)
	}
	res.Rows = res.Rows[offset:]
	if stmt.Limit != nil && *stmt.Limit < len(res.Rows) {
		res.Rows = res.Rows[:*stmt.Limit]
	}
}
