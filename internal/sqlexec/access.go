package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/index/btree"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Access-path selection. Instead of hard-wiring every named-table scan to a
// filtered full scan, the planner inspects the sargable WHERE conjuncts
// pushed into a source and chooses among:
//
//   - full scan            — stream every tuple through the scan kernel;
//   - pk / index point     — equality on every index column resolves to at
//     most a handful of tuples through the B+-tree;
//   - pk / index range     — an equality prefix plus bounds on the next
//     index column becomes one [lo, hi) iteration over the order-preserving
//     key encoding;
//   - index-ordered scan   — ORDER BY <first index column> LIMIT k walks
//     the index in order and stops after k qualifying tuples, eliding the
//     sort entirely.
//
// Index scans return a SUPERSET guarantee rather than exactness: every tuple
// that can satisfy the pushed conjuncts is visited, and the conjuncts are
// re-evaluated on each candidate, so index-path results are row-for-row
// identical to full-scan results (the golden tests in access_test.go prove
// this per layout). Sargability is deliberately conservative: only columns
// declared NUMERIC participate, because the engine's comparison semantics
// for text (case-insensitive) diverge from the byte order of the index
// encoding.

// pathKind classifies an access path.
type pathKind int

// Access-path kinds.
const (
	pathFull pathKind = iota
	pathPoint
	pathRange
	pathInList
)

// accessPath is one chosen access path for a named-table source.
type accessPath struct {
	kind  pathKind
	index *secIndex // nil: the primary-key B-tree serves the path
	// key is the exact PK key of a primary-key point lookup.
	key []byte
	// lo/hi bound the B-tree iteration of range scans and secondary point
	// probes (nil = open end).
	lo, hi []byte
	// probes are the batch keys of an IN-list path: full PK keys when the
	// primary-key tree serves the path, value prefixes (each probed as a
	// short range over the entry-key encoding) for a secondary index.
	probes [][]byte
	// ordered marks a scan that emits tuples in the statement's ORDER BY
	// order; desc walks the index backwards. earlyLimit > 0 stops an
	// ordered scan after that many qualifying tuples.
	ordered    bool
	desc       bool
	earlyLimit int
	// display is the EXPLAIN rendering.
	display string
}

// orderReq describes the ordering a source could satisfy: the source column
// of the leading ORDER BY term, its direction, whether further terms follow,
// and the row budget (LIMIT+OFFSET) that allows an early exit.
type orderReq struct {
	col   int
	desc  bool
	multi bool
	limit int
}

var noOrder = orderReq{col: -1}

// sarg is one sargable constraint: column <op> constant, or column IN a
// folded constant list (op "in", constants in vals).
type sarg struct {
	col  int
	op   string // "=", "<", "<=", ">", ">=", "in"
	val  sheet.Value
	vals []sheet.Value
}

// extractSargs derives sargable constraints from pushed conjuncts. Pushed
// conjuncts are error-free and single-source by construction; constants are
// folded per execution (RANGEVALUE parameters and '?' placeholders
// included, so a prepared statement's bounds resolve late, against the
// arguments of the execution at hand). Only NUMERIC-typed columns yield
// sargs, and range constants must already be numbers — for equality a
// numeric coercion is applied, mirroring Value.Equal.
func extractSargs(pushed []sqlparser.Expr, cols []colDesc, tbl *catalog.Table, env *execEnv) []sarg {
	var out []sarg
	colOf := func(e sqlparser.Expr) int {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return -1
		}
		i, err := findColumn(cols, strings.ToLower(cr.Table), strings.ToLower(cr.Name))
		if err != nil {
			return -1
		}
		return i
	}
	constOf := func(e sqlparser.Expr) (sheet.Value, bool) {
		if !exprColumnFree(e) {
			return sheet.Empty(), false
		}
		be, err := compileExpr(e, &compileEnv{noRel: true, sheets: env.sheets})
		if err != nil {
			return sheet.Empty(), false
		}
		v, err := be.eval(env.newRowCtx())
		if err != nil || v.IsEmpty() {
			return sheet.Empty(), false
		}
		return v, true
	}
	numericCol := func(i int) bool {
		return i >= 0 && i < len(tbl.Columns) && tbl.Columns[i].Type == catalog.TypeNumber
	}
	add := func(col int, op string, v sheet.Value) {
		if !numericCol(col) {
			return
		}
		if op == "=" {
			f, ok := v.AsNumber()
			if !ok {
				return
			}
			v = sheet.Number(f)
		} else if v.Kind != sheet.KindNumber {
			// Compare ranks non-numbers above every number, so a range
			// against a non-numeric constant is not an index range.
			return
		}
		out = append(out, sarg{col: col, op: op, val: v})
	}
	// IN-list point probes: `col IN (c1, c2, ...)` on a NUMERIC column
	// plans as a batch of point lookups. Every list element must fold to a
	// constant; elements that cannot coerce to a number abandon the whole
	// list (conservative: the engine's equality semantics decide matches,
	// and the index path must visit a superset of them).
	inList := func(x *sqlparser.InExpr) {
		if x.Not {
			return
		}
		col := colOf(x.X)
		if !numericCol(col) || len(x.List) == 0 {
			return
		}
		seen := make(map[float64]bool, len(x.List))
		vals := make([]sheet.Value, 0, len(x.List))
		for _, e := range x.List {
			v, ok := constOf(e)
			if !ok {
				return // unfoldable element: no sarg for this conjunct
			}
			f, ok := v.AsNumber()
			if !ok {
				return // a non-numeric member defers to the full predicate
			}
			if f == 0 {
				f = 0 // normalise -0 like encodeKeyValue
			}
			if !seen[f] {
				seen[f] = true
				vals = append(vals, sheet.Number(f))
			}
		}
		out = append(out, sarg{col: col, op: "in", vals: vals})
	}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	for _, c := range pushed {
		switch x := c.(type) {
		case *sqlparser.BinaryExpr:
			switch x.Op {
			case "=", "<", "<=", ">", ">=":
			default:
				continue
			}
			if col := colOf(x.Left); col >= 0 {
				if v, ok := constOf(x.Right); ok {
					add(col, x.Op, v)
				}
				continue
			}
			if col := colOf(x.Right); col >= 0 {
				if v, ok := constOf(x.Left); ok {
					op := x.Op
					if f, ok := flip[op]; ok {
						op = f
					}
					add(col, op, v)
				}
			}
		case *sqlparser.BetweenExpr:
			if x.Not {
				continue
			}
			col := colOf(x.X)
			if col < 0 {
				continue
			}
			if lo, ok := constOf(x.Lo); ok {
				add(col, ">=", lo)
			}
			if hi, ok := constOf(x.Hi); ok {
				add(col, "<=", hi)
			}
		case *sqlparser.InExpr:
			inList(x)
		}
	}
	return out
}

// zoneBoundsOf converts sargable constraints into the storage layer's
// zone-map bound form. Sarg columns are physical store column indexes (the
// full source schema), which is exactly the space zone summaries live in;
// equality constants are already numerically coerced and range constants are
// numbers by construction.
func zoneBoundsOf(sargs []sarg) []tablestore.ZoneBound {
	var out []tablestore.ZoneBound
	for _, sg := range sargs {
		if sg.op == "in" {
			vals := make([]float64, len(sg.vals))
			for i, v := range sg.vals {
				vals[i] = v.Num
			}
			out = append(out, tablestore.ZoneBound{Col: sg.col, Op: sg.op, Vals: vals})
			continue
		}
		out = append(out, tablestore.ZoneBound{Col: sg.col, Op: sg.op, Val: sg.val.Num})
	}
	return out
}

// chooseAccessPath selects the access path for one named-table source given
// its pushed conjuncts and an optional ordering request. It always returns a
// path; pathFull means "stream the storage manager".
func (db *Database) chooseAccessPath(tbl *catalog.Table, cols []colDesc, pushed []sqlparser.Expr, env *execEnv, ord orderReq) *accessPath {
	full := &accessPath{kind: pathFull, display: "full scan"}
	if db.planHint().FullScan {
		full.display = "full scan (forced)"
		return full
	}
	sargs := extractSargs(pushed, cols, tbl, env)

	best, bestScore := full, 0
	consider := func(p *accessPath, score int) {
		if p != nil && score > bestScore {
			best, bestScore = p, score
		}
	}

	// Primary key.
	pk := tbl.PrimaryKey()
	if len(pk) > 0 && pkNumeric(tbl, pk) {
		consider(buildIndexPath(tbl, nil, pk, true, sargs, ord))
	}
	// Secondary indexes.
	db.mu.RLock()
	secs := append([]*secIndex(nil), db.secIndexes[tkey(tbl.Name)]...)
	db.mu.RUnlock()
	for _, si := range secs {
		if !pkNumeric(tbl, si.cols) {
			continue
		}
		consider(buildIndexPath(tbl, si, si.cols, si.def.Unique, sargs, ord))
	}
	return best
}

// pkNumeric reports whether every index column is declared NUMERIC (the
// sargability precondition).
func pkNumeric(tbl *catalog.Table, cols []int) bool {
	for _, c := range cols {
		if c < 0 || c >= len(tbl.Columns) || tbl.Columns[c].Type != catalog.TypeNumber {
			return false
		}
	}
	return true
}

// buildIndexPath matches the sargs and ordering request against one index
// (the PK when si is nil) and returns the best path it supports with a
// selectivity score, or (nil, 0).
func buildIndexPath(tbl *catalog.Table, si *secIndex, idxCols []int, unique bool, sargs []sarg, ord orderReq) (*accessPath, int) {
	name := func() string {
		if si == nil {
			return "pk"
		}
		return "index " + si.def.Name
	}
	colName := func(i int) string { return strings.ToLower(tbl.Columns[idxCols[i]].Name) }

	// Longest equality prefix.
	eqVal := func(col int) (sheet.Value, bool) {
		for _, sg := range sargs {
			if sg.col == col && sg.op == "=" {
				return sg.val, true
			}
		}
		return sheet.Empty(), false
	}
	var prefixParts [][]byte
	var eqNames []string
	eqLen := 0
	for _, c := range idxCols {
		v, ok := eqVal(c)
		if !ok {
			break
		}
		prefixParts = append(prefixParts, encodeKeyValue(v))
		eqNames = append(eqNames, colName(eqLen))
		eqLen++
	}
	prefix := btree.Composite(prefixParts...)

	// Equality on every index column: a point lookup.
	if eqLen == len(idxCols) {
		p := &accessPath{kind: pathPoint, index: si}
		if si == nil {
			p.key = prefix
			p.display = fmt.Sprintf("pk point (%s)", strings.Join(eqNames, ", "))
			return p, 100
		}
		p.lo, p.hi = prefix, btree.PrefixEnd(prefix)
		p.display = fmt.Sprintf("%s point (%s)", name(), strings.Join(eqNames, ", "))
		if unique {
			return p, 90
		}
		return p, 80
	}

	// IN-list point probes: a single-column index whose column carries a
	// folded `IN (c1, c2, ...)` list becomes a batch of point lookups, one
	// per distinct value — the primary-key tree is probed with exact keys,
	// a secondary index with one prefix range per value. Probes are sorted
	// in key order for deterministic iteration; candidates still emit in
	// RowID order (collectPathIDs sorts) so results match the full scan
	// row-for-row.
	if eqLen == 0 && len(idxCols) == 1 {
		for _, sg := range sargs {
			if sg.col != idxCols[0] || sg.op != "in" {
				continue
			}
			probes := make([][]byte, len(sg.vals))
			for i, v := range sg.vals {
				probes[i] = encodeKeyValue(v)
			}
			sort.Slice(probes, func(i, j int) bool {
				return string(probes[i]) < string(probes[j])
			})
			p := &accessPath{kind: pathInList, index: si, probes: probes}
			p.display = fmt.Sprintf("%s in-list (%s, %d probes)", name(), colName(0), len(probes))
			score := 70
			if si == nil {
				score = 78 // exact PK Gets beat secondary prefix ranges
			} else if unique {
				score = 74
			}
			return p, score
		}
	}

	// Bounds on the column after the equality prefix.
	next := idxCols[eqLen]
	var loVal, hiVal *sheet.Value
	var loIncl, hiIncl bool
	for i := range sargs {
		sg := sargs[i]
		if sg.col != next {
			continue
		}
		switch sg.op {
		case ">", ">=":
			incl := sg.op == ">="
			if loVal == nil || tighterLo(*loVal, loIncl, sg.val, incl) {
				loVal, loIncl = &sargs[i].val, incl
			}
		case "<", "<=":
			incl := sg.op == "<="
			if hiVal == nil || tighterHi(*hiVal, hiIncl, sg.val, incl) {
				hiVal, hiIncl = &sargs[i].val, incl
			}
		}
	}

	// Ordering: the scan follows the index order when the leading ORDER BY
	// term is the single index column with no equality pinning it. The
	// index must be single-column: a composite index orders ties on the
	// leading column by the trailing columns, not by the RowID order the
	// stable sort preserves. Within a single-column index, ascending ties
	// emit in RowID order (the entry-key suffix), matching the stable
	// sort; DESC (and trailing ORDER BY terms) additionally require
	// uniqueness, so only the NULL group can tie (handled by the ordered
	// walk, which emits it in ascending RowID order).
	ordered := ord.col >= 0 && eqLen == 0 && len(idxCols) == 1 && idxCols[0] == ord.col
	if ordered && (ord.desc || ord.multi) && !unique {
		ordered = false
	}

	if eqLen == 0 && loVal == nil && hiVal == nil {
		// No usable constraint: only an ordered early-exit walk justifies
		// touching the index at all.
		if !ordered || ord.limit <= 0 {
			return nil, 0
		}
		p := &accessPath{
			kind: pathRange, index: si, ordered: true, desc: ord.desc, earlyLimit: ord.limit,
			display: fmt.Sprintf("%s scan, index-ordered (sort elided, limit %d)", name(), ord.limit),
		}
		return p, 20
	}

	p := &accessPath{kind: pathRange, index: si}
	p.lo, p.hi = rangeBounds(prefix, loVal, loIncl, hiVal, hiIncl)
	score := 40
	if loVal != nil && hiVal != nil {
		score = 60
	}
	if eqLen > 0 {
		score = 60 + eqLen
	}
	if si == nil {
		score += 2 // the PK tree resolves without an entry-key suffix
	}
	desc := ""
	switch {
	case eqLen > 0 && (loVal != nil || hiVal != nil):
		desc = fmt.Sprintf("%s, %s", strings.Join(eqNames, ", "), colName(eqLen))
	case eqLen > 0:
		desc = strings.Join(eqNames, ", ")
	default:
		desc = colName(0)
	}
	p.display = fmt.Sprintf("%s range (%s)", name(), desc)
	if ordered {
		p.ordered, p.desc = true, ord.desc
		if ord.limit > 0 {
			p.earlyLimit = ord.limit
		}
		p.display += ", index-ordered (sort elided)"
		score++
	}
	return p, score
}

// tighterLo reports whether (b, bIncl) is a tighter lower bound than
// (a, aIncl).
func tighterLo(a sheet.Value, aIncl bool, b sheet.Value, bIncl bool) bool {
	if c := b.Compare(a); c != 0 {
		return c > 0
	}
	return aIncl && !bIncl
}

// tighterHi reports whether (b, bIncl) is a tighter upper bound than
// (a, aIncl).
func tighterHi(a sheet.Value, aIncl bool, b sheet.Value, bIncl bool) bool {
	if c := b.Compare(a); c != 0 {
		return c < 0
	}
	return aIncl && !bIncl
}

// rangeBounds converts an equality prefix plus value bounds on the next
// column into [lo, hi) over the key encoding. Inclusive bounds become
// exclusive through PrefixEnd, which covers every entry-key extension
// (composite suffixes and RowID suffixes alike).
func rangeBounds(prefix []byte, loVal *sheet.Value, loIncl bool, hiVal *sheet.Value, hiIncl bool) (lo, hi []byte) {
	switch {
	case loVal != nil && loIncl:
		lo = btree.Composite(prefix, encodeKeyValue(*loVal))
	case loVal != nil:
		lo = btree.PrefixEnd(btree.Composite(prefix, encodeKeyValue(*loVal)))
	case len(prefix) > 0:
		lo = prefix
	}
	switch {
	case hiVal != nil && hiIncl:
		hi = btree.PrefixEnd(btree.Composite(prefix, encodeKeyValue(*hiVal)))
	case hiVal != nil:
		hi = btree.Composite(prefix, encodeKeyValue(*hiVal))
	case len(prefix) > 0:
		hi = btree.PrefixEnd(prefix)
	}
	return lo, hi
}

// numberFloor is the smallest key of any number entry ([tag 1]); keys below
// it (tag 0) encode NULL.
var numberFloor = []byte{1}

// collectPathIDs gathers the candidate RowIDs of a non-ordered path in
// ascending RowID order, so downstream results keep the exact row order a
// full scan would produce.
func (db *Database) collectPathIDs(table string, path *accessPath) ([]tablestore.RowID, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.collectPathIDsLocked(table, path)
}

// collectPathIDsLocked is collectPathIDs for callers already holding the
// database read lock (scan paths that keep the lock across the row fetch).
// An index leaf that cannot be loaded fails the whole collection: a partial
// candidate list would read as a silent miss.
// dslint:requires(engine)
func (db *Database) collectPathIDsLocked(table string, path *accessPath) ([]tablestore.RowID, error) {
	tree := path.indexTree(db, table)
	if tree == nil {
		return nil, nil
	}
	var ids []tablestore.RowID
	collect := func(_ []byte, val uint64) bool {
		ids = append(ids, tablestore.RowID(val))
		return true
	}
	var err error
	switch {
	case path.kind == pathInList && path.index == nil:
		for _, key := range path.probes {
			id, ok, gerr := tree.Get(key)
			if gerr != nil {
				return nil, gerr
			}
			if ok {
				ids = append(ids, tablestore.RowID(id))
			}
		}
	case path.kind == pathInList:
		for _, prefix := range path.probes {
			if err = tree.AscendRange(prefix, btree.PrefixEnd(prefix), collect); err != nil {
				break
			}
		}
	case path.index == nil && path.kind == pathPoint:
		var id uint64
		var ok bool
		if id, ok, err = tree.Get(path.key); ok {
			ids = append(ids, tablestore.RowID(id))
		}
	default:
		err = tree.AscendRange(path.lo, path.hi, collect)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// walkPathOrdered iterates the candidate RowIDs of an ordered path in index
// order, NULL keys last to match the executor's NULLS LAST collation. fn
// returns false to stop (the early exit of ORDER BY ... LIMIT k). The
// caller must hold the database read lock.
// dslint:requires(engine)
func (db *Database) walkPathOrdered(table string, path *accessPath, fn func(id tablestore.RowID) bool) error {
	tree := path.indexTree(db, table)
	if tree == nil {
		return nil
	}
	done := false
	emit := func(_ []byte, val uint64) bool {
		done = !fn(tablestore.RowID(val))
		return !done
	}
	lo, hi := path.lo, path.hi
	// An open lower bound takes in the NULL group (keys below numberFloor).
	// It sorts last under compareOrderKeys regardless of direction, so the
	// non-NULL keys go first and the NULL group follows unless fn stopped
	// the walk. NULLs are exempt from uniqueness, so the group can hold
	// several rows; their stable-sort tie order is ascending RowID, i.e.
	// ascending entry-key order, in both directions.
	nullsLast := lo == nil && (path.desc || hi == nil)
	if nullsLast {
		lo = numberFloor
	}
	// Otherwise the scan is bounded: NULL keys inside [lo, hi) can only
	// occur with lo == nil, and such rows never satisfy the range conjunct
	// that produced hi, so the predicate re-evaluation drops them before
	// they count against the limit.
	walk := tree.AscendRange
	if path.desc {
		walk = tree.DescendRange
	}
	if err := walk(lo, hi, emit); err != nil || done || !nullsLast {
		return err
	}
	return tree.AscendRange(nil, numberFloor, emit)
}

// indexTree resolves the B-tree behind a path (caller holds db.mu).
func (p *accessPath) indexTree(db *Database, table string) *btree.Tree {
	if p.index != nil {
		return p.index.tree
	}
	return db.pkIndex[tkey(table)]
}
