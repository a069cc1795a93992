package sqlexec

import (
	"container/heap"
	"container/list"
	"sync"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// Prepared statements and the plan cache. DBSQL recalculation re-runs the
// same SQL text over and over (fresh RANGEVALUE parameters, same statement),
// so Database keeps an LRU of parsed-and-analyzed statements keyed by the
// exact SQL text. Schema definition changes (CREATE/ALTER/DROP) bump an
// epoch that lazily invalidates every cached entry: a prepared plan can
// never execute against analysis derived from a dropped or altered schema.
// Name-to-slot binding itself happens once per execution (late binding), so
// RANGETABLE relations — whose schema lives in the sheet, outside DDL — are
// always bound against their current shape.

// Prepared is a parsed and analyzed statement ready for repeated execution.
// It is immutable after Prepare and safe to share across sessions: bindings
// ('?' arguments, RANGEVALUE reads, access-path bounds) live in the
// per-execution environment, never in the prepared statement.
type Prepared struct {
	// SQL is the exact text the statement was parsed from.
	SQL     string
	stmt    sqlparser.Statement
	sel     *selectAnalysis // non-nil when stmt is a SELECT
	epoch   uint64
	nparams int
	pnames  []string
}

// Statement returns the parsed statement.
func (p *Prepared) Statement() sqlparser.Statement { return p.stmt }

// NumParams returns the number of parameter slots the statement binds ('?'
// placeholders, or distinct ':name' parameters).
func (p *Prepared) NumParams() int { return p.nparams }

// ParamNames returns the parameter names by slot index: lower-cased ':name'
// names for a named statement, empty strings for positional '?' slots. The
// returned slice is shared; callers must not mutate it.
func (p *Prepared) ParamNames() []string { return p.pnames }

// selectAnalysis is the schema-independent logical plan of one SELECT:
// everything derivable from the statement text alone, computed once and
// reused across executions.
type selectAnalysis struct {
	// conjuncts is the WHERE clause split into AND-ed conjuncts, the unit
	// of predicate pushdown.
	conjuncts []sqlparser.Expr
	// constConjuncts marks conjuncts that reference no columns and cannot
	// error: they are evaluated once per execution instead of once per
	// row. Error-capable conjuncts stay per-row so short-circuiting
	// matches the row-at-a-time evaluator.
	constConjuncts []bool
	// pushable marks conjuncts that are safe to evaluate below a join
	// (error-free; see exprCanError).
	pushable []bool
	// grouped is true when the statement aggregates (explicit GROUP BY or
	// any aggregate call in the projection, HAVING or ORDER BY).
	grouped bool
}

// analyzeSelect builds the reusable analysis of a SELECT statement.
func analyzeSelect(stmt *sqlparser.SelectStmt) *selectAnalysis {
	an := &selectAnalysis{conjuncts: sqlparser.SplitConjuncts(stmt.Where)}
	an.constConjuncts = make([]bool, len(an.conjuncts))
	an.pushable = make([]bool, len(an.conjuncts))
	for i, c := range an.conjuncts {
		canError := exprCanError(c)
		an.constConjuncts[i] = exprColumnFree(c) && !canError
		an.pushable[i] = !canError
	}
	hasAgg := stmt.Having != nil && exprHasAggregate(stmt.Having)
	for _, item := range stmt.Columns {
		if !item.Star && exprHasAggregate(item.Expr) {
			hasAgg = true
		}
	}
	for _, o := range stmt.OrderBy {
		if exprHasAggregate(o.Expr) {
			hasAgg = true
		}
	}
	an.grouped = len(stmt.GroupBy) > 0 || hasAgg
	return an
}

// planCacheCap bounds the number of cached prepared statements.
const planCacheCap = 256

// planCache is an LRU of prepared statements keyed by SQL text.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; holds *Prepared
	hits    uint64
	misses  uint64
}

// PlanCacheStats reports the plan cache state for tests and diagnostics.
type PlanCacheStats struct {
	Size   int
	Hits   uint64
	Misses uint64
}

// Prepare parses and analyzes sql, consulting the plan cache. Entries
// prepared under an older schema epoch are discarded and rebuilt.
func (db *Database) Prepare(sql string) (*Prepared, error) {
	epoch := db.schemaEpoch.Load()
	c := &db.plans
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
		c.lru = list.New()
	}
	if el, ok := c.entries[sql]; ok {
		p := el.Value.(*Prepared)
		if p.epoch == epoch {
			c.lru.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return p, nil
		}
		c.lru.Remove(el)
		delete(c.entries, sql)
	}
	c.misses++
	c.mu.Unlock()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p := PrepareParsed(sql, stmt)
	p.epoch = epoch

	c.mu.Lock()
	if el, ok := c.entries[sql]; ok {
		// Raced with another Prepare; keep the incumbent if it is current.
		if inc := el.Value.(*Prepared); inc.epoch == epoch {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return inc, nil
		}
		c.lru.Remove(el)
		delete(c.entries, sql)
	}
	c.entries[sql] = c.lru.PushFront(p)
	for len(c.entries) > planCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*Prepared).SQL)
	}
	c.mu.Unlock()
	return p, nil
}

// PrepareParsed analyzes stmt, parsed from sql, outside the plan cache: for
// statements run once, such as a script's, which would only evict the plans
// of statements that run again.
func PrepareParsed(sql string, stmt sqlparser.Statement) *Prepared {
	p := &Prepared{SQL: sql, stmt: stmt, nparams: sqlparser.NumPlaceholders(stmt), pnames: sqlparser.ParamNames(stmt)}
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		p.sel = analyzeSelect(sel)
	}
	return p
}

// PlanCacheStats returns plan cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	c := &db.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Size: len(c.entries), Hits: c.hits, Misses: c.misses}
}

// invalidatePlans marks every cached plan stale. Called on any schema
// definition change (CREATE/ALTER/DROP TABLE and column DDL).
func (db *Database) invalidatePlans() {
	db.schemaEpoch.Add(1)
}

// --- top-K selection for ORDER BY ... LIMIT ---

// topKHeap keeps the k smallest rows under cmp instead of sorting the full
// input. Ties are broken by input sequence so the surviving rows are exactly
// the prefix a stable full sort would keep.
type topKHeap struct {
	cmp  func(a, b []sheet.Value) int
	k    int
	ents []topKEntry
}

type topKEntry struct {
	row []sheet.Value
	seq int
}

func (h *topKHeap) Len() int { return len(h.ents) }

// Less orders the HEAP by "worst first" (max-heap on the sort order), so the
// root is the row to evict when a better one arrives.
func (h *topKHeap) Less(i, j int) bool {
	if c := h.cmp(h.ents[i].row, h.ents[j].row); c != 0 {
		return c > 0
	}
	return h.ents[i].seq > h.ents[j].seq
}

func (h *topKHeap) Swap(i, j int) { h.ents[i], h.ents[j] = h.ents[j], h.ents[i] }

func (h *topKHeap) Push(x any) { h.ents = append(h.ents, x.(topKEntry)) }

func (h *topKHeap) Pop() any {
	e := h.ents[len(h.ents)-1]
	h.ents = h.ents[:len(h.ents)-1]
	return e
}

// offer adds a candidate row, evicting the current worst once k rows are
// held.
func (h *topKHeap) offer(row []sheet.Value, seq int) {
	if h.k <= 0 {
		return
	}
	if len(h.ents) < h.k {
		heap.Push(h, topKEntry{row: row, seq: seq})
		return
	}
	// Compare against the worst kept row: keep the newcomer only if it
	// sorts strictly before it (sequence breaks ties, preserving the
	// stable-sort prefix).
	if c := h.cmp(row, h.ents[0].row); c > 0 || (c == 0 && seq > h.ents[0].seq) {
		return
	}
	h.ents[0] = topKEntry{row: row, seq: seq}
	heap.Fix(h, 0)
}

// finish returns the kept rows sorted in output order.
func (h *topKHeap) finish() [][]sheet.Value {
	rows := make([][]sheet.Value, len(h.ents))
	for i := len(rows) - 1; i >= 0; i-- {
		rows[i] = heap.Pop(h).(topKEntry).row
	}
	return rows
}

// compareOrderKeys orders two key vectors under the ORDER BY items with
// NULLs sorting last regardless of direction. It returns -1, 0 or +1.
func compareOrderKeys(orderBy []sqlparser.OrderItem, ka, kb []sheet.Value) int {
	for i, o := range orderBy {
		a, b := ka[i], kb[i]
		switch {
		case a.IsEmpty() && b.IsEmpty():
			continue
		case a.IsEmpty():
			return 1
		case b.IsEmpty():
			return -1
		}
		c := a.Compare(b)
		if c == 0 {
			continue
		}
		if o.Desc {
			return -c
		}
		return c
	}
	return 0
}
