package sqlexec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The SELECT executor. A statement plans its FROM clause (pushdown, pruning,
// access paths, joins), opens it as one rowSource (scan.go) and drains that
// pipeline
//
//	scan -> join probe -> residual filter -> projector -> sink
//
// into a sink: collect, the GROUP BY fold, or — for a consumer that is handed
// rows as they are produced — OFFSET/LIMIT and the consumer itself. Three
// properties hold on every path:
//
//   - Predicate pushdown: WHERE conjuncts that reference a single FROM
//     source are evaluated inside that source's scan, before rows are
//     copied out of the storage manager (or, for RANGETABLE and sub-select
//     sources, before rows flow into joins).
//   - Projection pruning: named tables are scanned through ScanColsRange with
//     only the referenced columns, so column and hybrid layouts never page
//     in blocks of unreferenced attribute groups.
//   - Bound evaluation: every expression is compiled once per puller
//     against its input schema (see bind.go); per-row evaluation never
//     resolves names and never formats hash keys.

// executeSelect runs a SELECT statement to a materialised Result.
func (db *Database) executeSelect(stmt *sqlparser.SelectStmt, env *execEnv) (*Result, error) {
	return db.runSelect(stmt, analyzeSelect(stmt), env)
}

// runSelect executes a SELECT according to its cached analysis, collecting
// what the pipeline delivers.
func (db *Database) runSelect(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv) (*Result, error) {
	out, err := db.openSelect(stmt, an, env, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: out.names}
	err = out.deliver(env, func(row []sheet.Value) error {
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// resultStream is an opened SELECT: the output column names and the source
// deliver drains through OFFSET/LIMIT — the live pipeline, or the finished
// rows of a statement that had to see all its input first.
type resultStream struct {
	names []string
	final rowSource
	cut   limitCut
}

// openSelect plans the statement and builds its pipeline. parks says the
// consumer of deliver may block. The pipeline is the same either way; what
// differs is the puller count and the sink. A statement whose result order is
// its input order (no grouping, DISTINCT or ORDER BY) and whose consumer
// parks is left open: deliver drains it with one puller straight into
// OFFSET/LIMIT and the consumer, stopping the scan when the LIMIT is met and
// never holding more than the row in flight. Every other statement is drained
// here by the pool into the fold or the collect sink and finished (DISTINCT,
// sort); the input's snapshots are released before anything is delivered, so
// a slow consumer of a materialised result retains no epoch.
func (db *Database) openSelect(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv, parks bool) (*resultStream, error) {
	plan, err := db.planInput(stmt, an, env)
	if err != nil {
		return nil, err
	}
	streaming := parks && !an.grouped && !stmt.Distinct && len(stmt.OrderBy) == 0
	width := db.parWorkers()
	if streaming {
		width = 1
	}
	src, err := db.openInput(plan, width, streaming, env)
	if err != nil {
		return nil, err
	}
	projs, err := perPuller(src, func() (*projector, error) { return compileProjector(stmt, an, plan.cols, env) })
	if err != nil {
		src.release()
		return nil, err
	}
	p := projs[0]
	out := &resultStream{names: p.names, final: &projectSource{rowSource: src, projs: projs}}
	out.cut.width = len(p.items)
	out.cut.offset, out.cut.end = limitWindow(stmt)
	if streaming {
		return out, nil
	}
	var rows [][]sheet.Value
	if an.grouped {
		groups, ok := bareCount(stmt, p, src)
		if !ok {
			groups, err = foldGroups(src, projs, env)
		}
		if err == nil {
			rows, err = groupRows(groups, p, env)
		}
	} else {
		rows, err = collect(out.final, env)
	}
	src.release()
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		rows = distinctRows(rows, len(p.items))
	}
	if len(stmt.OrderBy) > 0 {
		// The comparison sort cannot be interrupted mid-way; poll once at
		// the sort boundary so a cancelled query never starts it.
		if err := env.cancel.now(); err != nil {
			return nil, err
		}
		rows = sortRows(stmt.OrderBy, rows, len(p.items), out.cut.end)
	}
	out.final = newRowSet(rows, 1)
	return out, nil
}

// deliver drains the opened statement through OFFSET/LIMIT into yield, with
// one puller, and releases it.
//
// dslint:parks(yield)
func (rs *resultStream) deliver(env *execEnv, yield func([]sheet.Value) error) error {
	defer rs.final.release()
	rs.cut.yield = yield
	if err := rs.final.pull(0, env, rs.cut.emit); !errors.Is(err, errStreamDone) {
		return err
	}
	return nil
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
// conjuncts and chosen access paths, the joins between them, the residual
// conjuncts, the schema of the rows the whole input emits, and whether a
// constant WHERE conjunct already emptied the result. The executor opens it
// (openInput) and EXPLAIN renders it.
type inputPlan struct {
	srcs     []*srcState
	joins    []*joinPlan // joins[i] joins srcs[i+1] onto what precedes it
	residual []sqlparser.Expr
	cols     []colDesc
	live     bool
}

// openInput opens the planned FROM clause as one source of up to `workers`
// pullers: the first FROM source, wrapped by one hash-join probe per join —
// whose build side is collected here — and by the residual filter. batched
// selects the index read a parking consumer needs (see openSource). The
// caller releases the source.
func (db *Database) openInput(plan *inputPlan, workers int, batched bool, env *execEnv) (rowSource, error) {
	src, err := db.openSource(plan.srcs[0], plan.live, workers, batched, env)
	if err != nil {
		return nil, err
	}
	for ji, jp := range plan.joins {
		right, err := db.openSource(plan.srcs[ji+1], plan.live, workers, false, env)
		if err != nil {
			src.release()
			return nil, err
		}
		j, err := newJoinSource(src, jp, right, workers, env)
		right.release()
		if err != nil {
			src.release()
			return nil, err
		}
		src = j
	}
	// Residual WHERE conjuncts (those spanning sources, blocked by the
	// nullable side of a LEFT JOIN, or able to raise an error) filter the
	// joined rows.
	if len(plan.residual) > 0 {
		preds, err := perPuller(src, func() ([]boundExpr, error) { return compilePredicates(plan.residual, plan.cols, env) })
		if err != nil {
			src.release()
			return nil, err
		}
		src = &filterSource{rowSource: src, preds: preds}
	}
	return src, nil
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
		// Table-less SELECT: the source is a single anonymous row.
		one := &srcState{rows: [][]sheet.Value{{}}}
		return &inputPlan{srcs: []*srcState{one}, live: live, residual: nonConst}, nil
	}

	srcs, err := db.buildSources(stmt, env)
	if err != nil {
		return nil, err
	}

	// Simulate the joined schema over the full source schemas: the final
	// column list, where each column came from, and the join key columns
	// (which count as referenced on both sides).
	accum := srcs[0].cols
	origin := make([]srcCol, len(accum))
	for i := range accum {
		origin[i] = srcCol{src: 0, col: i}
	}
	for ji, join := range stmt.Joins {
		si := ji + 1
		jp, err := planJoin(accum, srcs[si].cols, join)
		if err != nil {
			return nil, err
		}
		for k, li := range jp.leftKeys {
			srcs[origin[li].src].mark(origin[li].col)
			srcs[si].mark(jp.rightKeys[k])
		}
		for _, ri := range jp.rightKeep {
			origin = append(origin, srcCol{src: si, col: ri})
		}
		accum = jp.cols
		if join.On != nil {
			markRefs(join.On, accum, origin, srcs)
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
		if !db.planHint().NoSkip {
			s.zoneBounds = zoneBoundsOf(extractSargs(s.pushed, s.cols, s.tbl, env))
		}
	}

	// Resolve each join against the pruned schemas its inputs will emit.
	plan := &inputPlan{srcs: srcs, residual: residual, live: live}
	plan.cols, _ = srcs[0].scanSchema()
	for ji, join := range stmt.Joins {
		right, _ := srcs[ji+1].scanSchema()
		jp, err := planJoin(plan.cols, right, join)
		if err != nil {
			return nil, err
		}
		plan.joins = append(plan.joins, jp)
		plan.cols = jp.cols
	}
	return plan, nil
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
	col, err := columnIndex(s.cols, cr)
	if err != nil {
		return noOrder
	}
	ord := orderReq{col: col, desc: stmt.OrderBy[0].Desc, multi: len(stmt.OrderBy) > 1}
	if stmt.Limit != nil {
		_, ord.limit = limitWindow(stmt)
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

// perPuller runs compile once for every puller of src, sequentially (see
// parallel.go on why compiles are neither shared nor concurrent).
func perPuller[T any](src rowSource, compile func() (T, error)) ([]T, error) {
	pullers, _ := src.shape()
	out := make([]T, pullers)
	for w := range out {
		var err error
		if out[w], err = compile(); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// filterSource applies the residual WHERE conjuncts to what its input emits.
type filterSource struct {
	rowSource
	preds [][]boundExpr // per puller
}

// dslint:parks(emit)
func (f *filterSource) pull(w int, env *execEnv, emit emitFunc) error {
	preds := f.preds[w]
	ctx := env.newRowCtx()
	return f.rowSource.pull(w, env, func(part int, row []sheet.Value) error {
		ctx.row = row
		keep, err := allPredicates(preds, ctx)
		if err != nil || !keep {
			return err
		}
		return emit(part, row)
	})
}

// --- joins ---

// joinPlan is one join resolved against the schemas of its inputs: what the
// probe loop runs and what EXPLAIN prints.
type joinPlan struct {
	typ sqlparser.JoinType
	// cols is the output schema: the leftWidth left columns, then the kept
	// right ones.
	cols      []colDesc
	leftWidth int
	// leftKeys/rightKeys are the equi-join column pairs the build side is
	// hashed on; without any, every build row is a candidate for every probe
	// row (non-equi ON: nested loop; no condition: cross join).
	leftKeys, rightKeys []int
	// rightKeep lists the right columns copied into the output. For NATURAL
	// / USING joins the shared columns appear once (standard SQL semantics):
	// the right-hand copies are dropped.
	rightKeep []int
	// on is the ON condition, re-evaluated on every candidate: hash keys
	// equate NULL with 0 and fold case, SQL equality does neither. NATURAL /
	// USING joins match on the hash key alone (legacy key semantics).
	on sqlparser.Expr
}

// planJoin resolves a join specification against its input schemas.
func planJoin(left, right []colDesc, join sqlparser.Join) (*joinPlan, error) {
	jp := &joinPlan{typ: join.Type, leftWidth: len(left), cols: append([]colDesc(nil), left...)}
	switch {
	case join.Natural:
		for li, lc := range left {
			for ri, rc := range right {
				if lc.name == rc.name {
					jp.leftKeys = append(jp.leftKeys, li)
					jp.rightKeys = append(jp.rightKeys, ri)
					break
				}
			}
		}
	case len(join.Using) > 0:
		for _, name := range join.Using {
			n := strings.ToLower(name)
			li, err := findColumn(left, "", n)
			if err != nil {
				return nil, err
			}
			ri, err := findColumn(right, "", n)
			if err != nil {
				return nil, err
			}
			jp.leftKeys = append(jp.leftKeys, li)
			jp.rightKeys = append(jp.rightKeys, ri)
		}
	case join.On != nil:
		// Equi-join keys inside the ON condition turn the nested loop into
		// a hash probe; the condition itself still decides every candidate.
		jp.on = join.On
		jp.leftKeys, jp.rightKeys = equiJoinKeys(join.On, left, right)
	}
	for ri, rc := range right {
		if jp.on != nil || !slices.Contains(jp.rightKeys, ri) {
			jp.rightKeep = append(jp.rightKeep, ri)
			jp.cols = append(jp.cols, rc)
		}
	}
	return jp, nil
}

// String renders the join strategy for EXPLAIN.
func (jp *joinPlan) String() string {
	switch {
	case len(jp.leftKeys) > 0 && jp.on != nil:
		return fmt.Sprintf("hash, %d key(s), residual ON", len(jp.leftKeys))
	case len(jp.leftKeys) > 0:
		return fmt.Sprintf("hash, %d key(s)", len(jp.leftKeys))
	case jp.on != nil:
		return "nested loop"
	}
	return "cross"
}

// joinSource is the join probe: a source that wraps the probe (left) side and
// emits, for every row it pulls from it, the joined rows — in build-row order
// — under the left row's partition index. The build (right) side is rows in
// memory, hashed on the join keys when the plan has any.
type joinSource struct {
	rowSource // the probe side: shape and release pass through
	plan      *joinPlan
	build     [][]sheet.Value
	indexes   []*keyIndex // build hashed on plan.rightKeys, one index per build partition
	all       []int32     // every build row: the candidate list of a plan without keys
	ons       []boundExpr // plan.on compiled once per puller
}

// newJoinSource collects the build side and prepares the probe of left
// against it: one partitioned hash build (up to `workers` builders) and one
// compile of the ON condition per puller of left.
func newJoinSource(left rowSource, jp *joinPlan, right rowSource, workers int, env *execEnv) (*joinSource, error) {
	build, err := collect(right, env)
	if err != nil {
		return nil, err
	}
	j := &joinSource{rowSource: left, plan: jp, build: build}
	if jp.on != nil {
		j.ons, err = perPuller(left, func() (boundExpr, error) { return compileExpr(jp.on, env.compileEnv(jp.cols)) })
		if err != nil {
			return nil, err
		}
	}
	if len(jp.rightKeys) > 0 {
		j.indexes, err = buildIndexes(build, jp.rightKeys, workers, env)
		return j, err
	}
	j.all = make([]int32, len(build))
	for i := range j.all {
		j.all[i] = int32(i)
	}
	return j, nil
}

// stable is false: joined rows are assembled in a per-puller buffer.
func (j *joinSource) stable() bool { return false }

// pull is the one join loop. Candidates for a probe row are the build rows
// its key hashes to, or all of them; each candidate is assembled behind the
// probe row in the puller's output buffer, decided by the ON condition if
// there is one, and emitted from the buffer — nothing is copied unless the
// sink keeps it. An unmatched row of a LEFT JOIN is emitted once, padded
// with NULLs.
//
// dslint:parks(emit)
func (j *joinSource) pull(w int, env *execEnv, emit emitFunc) error {
	jp := j.plan
	var on boundExpr
	if j.ons != nil {
		on = j.ons[w]
	}
	out := make([]sheet.Value, len(jp.cols))
	right := out[jp.leftWidth:]
	ctx := env.newRowCtx()
	ctx.row = out
	poll := env.poller()
	keyBuf := make([]normValue, 0, len(jp.leftKeys))
	var matchBuf []int32
	return j.rowSource.pull(w, env, func(part int, lrow []sheet.Value) error {
		copy(out[:jp.leftWidth], lrow)
		cands := j.all
		if len(jp.leftKeys) > 0 {
			keyBuf = normalizeRowKey(keyBuf, lrow, jp.leftKeys)
			matchBuf = probeIndexes(j.indexes, keyBuf, matchBuf[:0])
			cands = matchBuf
		}
		matched := false
		for _, ri := range cands {
			// The poll is per candidate: a nested loop spends its time here,
			// not in the probe side's scan.
			if err := poll.check(); err != nil {
				return err
			}
			rrow := j.build[ri]
			for i, c := range jp.rightKeep {
				right[i] = rrow[c]
			}
			if on != nil {
				keep, err := evalBoundPredicate(on, ctx)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			matched = true
			if err := emit(part, out); err != nil {
				return err
			}
		}
		if !matched && jp.typ == sqlparser.JoinLeft {
			clear(right)
			return emit(part, out)
		}
		return nil
	})
}

// equiJoinKeys extracts column index pairs from an ON condition that is a
// conjunction of equality comparisons between a left column and a right
// column. It returns empty slices when the condition has any other shape.
func equiJoinKeys(on sqlparser.Expr, left, right []colDesc) (lk, rk []int) {
	for _, c := range sqlparser.SplitConjuncts(on) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			return nil, nil
		}
		lcol, lok := b.Left.(*sqlparser.ColumnRef)
		rcol, rok := b.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			return nil, nil
		}
		li, lerr := columnIndex(left, lcol)
		ri, rerr := columnIndex(right, rcol)
		if lerr != nil || rerr != nil {
			// Maybe the columns are written in the other order.
			li, lerr = columnIndex(left, rcol)
			ri, rerr = columnIndex(right, lcol)
		}
		if lerr != nil || rerr != nil {
			return nil, nil
		}
		lk = append(lk, li)
		rk = append(rk, ri)
	}
	return lk, rk
}

func columnIndex(cols []colDesc, cr *sqlparser.ColumnRef) (int, error) {
	return findColumn(cols, strings.ToLower(cr.Table), strings.ToLower(cr.Name))
}

// --- projection ---

// expandItems resolves stars into concrete select items and returns the
// output column names.
func expandItems(stmt *sqlparser.SelectStmt, cols []colDesc) ([]sqlparser.SelectItem, []string) {
	var items []sqlparser.SelectItem
	var names []string
	for _, item := range stmt.Columns {
		if item.Star {
			for _, c := range cols {
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
func buildOrderPlans(stmt *sqlparser.SelectStmt, itemCount int, names []string, env *compileEnv) ([]orderPlan, error) {
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
			if _, err := findColumn(env.cols, "", strings.ToLower(cr.Name)); err != nil {
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

// projector is one puller's compile of a statement's select list: the bound
// items and ORDER BY keys and, for a grouped statement, the aggregate calls
// they (and HAVING) read plus the GROUP BY key expressions the fold
// evaluates per input row.
type projector struct {
	names   []string
	items   []boundExpr
	order   []orderPlan
	reg     *aggRegistry // grouped statements only
	having  boundExpr
	groupBy []boundExpr
}

func compileProjector(stmt *sqlparser.SelectStmt, an *selectAnalysis, cols []colDesc, env *execEnv) (*projector, error) {
	items, names := expandItems(stmt, cols)
	p := &projector{names: names, items: make([]boundExpr, len(items))}
	cenv := env.compileEnv(cols)
	if an.grouped {
		p.reg = &aggRegistry{}
		cenv.aggs = p.reg
	}
	var err error
	for i, item := range items {
		if p.items[i], err = compileExpr(item.Expr, cenv); err != nil {
			return nil, err
		}
	}
	if an.grouped && stmt.Having != nil {
		if p.having, err = compileExpr(stmt.Having, cenv); err != nil {
			return nil, err
		}
	}
	if p.order, err = buildOrderPlans(stmt, len(items), names, cenv); err != nil {
		return nil, err
	}
	// GROUP BY expressions evaluate per input row; aggregates inside them
	// are invalid.
	rowEnv := env.compileEnv(cols)
	p.groupBy = make([]boundExpr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if p.groupBy[i], err = compileExpr(g, rowEnv); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// distinctAgg reports whether any aggregate is DISTINCT (its dedup set does
// not merge across partitions).
func (p *projector) distinctAgg() bool {
	return slices.ContainsFunc(p.reg.specs, func(sp *aggSpec) bool { return sp.distinct })
}

// row evaluates the select list for ctx's row (and, grouped, its aggregate
// results). The ORDER BY keys ride behind the items as trailing columns so
// DISTINCT, the sort and top-K carry one slice per row; limitCut trims them
// off on delivery.
func (p *projector) row(ctx *rowCtx, arena *valueArena) ([]sheet.Value, error) {
	n := len(p.items)
	out := arena.take(n + len(p.order))
	var err error
	for i, be := range p.items {
		if out[i], err = be.eval(ctx); err != nil {
			return nil, err
		}
	}
	for i, o := range p.order {
		if o.outCol >= 0 {
			out[n+i] = out[o.outCol]
		} else if out[n+i], err = o.expr.eval(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// projectSource emits the projection of every row its input emits.
type projectSource struct {
	rowSource
	projs []*projector // per puller
}

// stable is true: every projected row is freshly carved from an arena.
func (ps *projectSource) stable() bool { return true }

// dslint:parks(emit)
func (ps *projectSource) pull(w int, env *execEnv, emit emitFunc) error {
	p := ps.projs[w]
	ctx := env.newRowCtx()
	var arena valueArena
	return ps.rowSource.pull(w, env, func(part int, row []sheet.Value) error {
		ctx.row = row
		out, err := p.row(ctx, &arena)
		if err != nil {
			return err
		}
		return emit(part, out)
	})
}

// bareCount folds the one group of a statement whose only aggregates are
// COUNT(*) over a single table scan (no join, WHERE, GROUP BY or column read)
// from the pinned snapshot's row count, without pulling a partition.
func bareCount(stmt *sqlparser.SelectStmt, p *projector, src rowSource) ([]*groupState, bool) {
	ts, ok := src.(*tableScan)
	if !ok || stmt.Where != nil || len(stmt.GroupBy) > 0 || ts.cols == nil || len(ts.cols) > 0 {
		return nil, false
	}
	g := &groupState{accs: make([]aggState, len(p.reg.specs))}
	for i, sp := range p.reg.specs {
		if !sp.star || sp.name != "COUNT" {
			return nil, false
		}
		g.accs[i].n = ts.snap.RowCount()
	}
	return []*groupState{g}, true
}

// groupRows projects the folded groups, in group order, dropping the groups
// HAVING rejects.
func groupRows(groups []*groupState, p *projector, env *execEnv) ([][]sheet.Value, error) {
	ctx := env.newRowCtx()
	ctx.aggs = make([]sheet.Value, len(p.reg.specs))
	poll := env.poller()
	var arena valueArena
	rows := make([][]sheet.Value, 0, len(groups))
	for _, g := range groups {
		if err := poll.check(); err != nil {
			return nil, err
		}
		ctx.row = g.rep
		for i, sp := range p.reg.specs {
			ctx.aggs[i] = sp.result(&g.accs[i])
		}
		if p.having != nil {
			keep, err := evalBoundPredicate(p.having, ctx)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		out, err := p.row(ctx, &arena)
		if err != nil {
			return nil, err
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// --- finishing: DISTINCT, ORDER BY, OFFSET/LIMIT ---

// distinctRows deduplicates projected rows by the typed key of their first
// width columns, preserving first occurrences.
func distinctRows(rows [][]sheet.Value, width int) [][]sheet.Value {
	ix := newKeyIndex(width)
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	keyBuf := make([]normValue, 0, width)
	out := rows[:0:0]
	for _, row := range rows {
		keyBuf = normalizeRowKey(keyBuf, row, cols)
		if _, added := ix.getOrAdd(keyBuf); added {
			out = append(out, row)
		}
	}
	return out
}

// sortRows stable-sorts projected rows by the ORDER BY keys they carry
// behind their first width columns and returns the first keep of them. Input
// that is already in order — e.g. ORDER BY an insertion-ordered key — is
// detected in one linear pass and left untouched; when a LIMIT makes keep
// smaller than the input, a top-K heap selects exactly the prefix the stable
// sort would produce instead of sorting everything.
func sortRows(orderBy []sqlparser.OrderItem, rows [][]sheet.Value, width, keep int) [][]sheet.Value {
	less := func(a, b []sheet.Value) int { return compareOrderKeys(orderBy, a[width:], b[width:]) }
	if keep < len(rows) {
		h := &topKHeap{cmp: less, k: keep}
		for seq, row := range rows {
			h.offer(row, seq)
		}
		return h.finish()
	}
	sorted := true
	for i := 1; i < len(rows); i++ {
		if less(rows[i-1], rows[i]) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.SliceStable(rows, func(a, b int) bool { return less(rows[a], rows[b]) < 0 })
	}
	return rows
}

// limitWindow resolves OFFSET/LIMIT to the half-open window [offset, end) of
// the result order that is delivered. The parser guarantees both literals are
// non-negative ints; their sum saturates instead of wrapping.
func limitWindow(stmt *sqlparser.SelectStmt) (offset, end int) {
	end = math.MaxInt
	if stmt.Offset != nil {
		offset = *stmt.Offset
	}
	if stmt.Limit != nil && *stmt.Limit < end-offset {
		end = offset + *stmt.Limit
	}
	return offset, end
}

// limitCut is the final stage of every SELECT: it passes the rows of the
// OFFSET/LIMIT window, trimmed to the select list's width, to yield — which
// may park — and stops the pipeline behind it (errStreamDone, which never
// escapes deliver) once the window is exhausted.
type limitCut struct {
	offset, end int
	seen        int
	width       int
	yield       func([]sheet.Value) error
}

// emit receives the next row in result order (an emitFunc; the partition is
// irrelevant this late). errStreamDone says no later row can be delivered.
func (c *limitCut) emit(_ int, row []sheet.Value) error {
	if c.seen >= c.end {
		return errStreamDone
	}
	if c.seen++; c.seen <= c.offset {
		return nil
	}
	if err := c.yield(row[:c.width:c.width]); err != nil {
		return err
	}
	if c.seen >= c.end {
		return errStreamDone
	}
	return nil
}
