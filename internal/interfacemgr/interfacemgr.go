// Package interfacemgr implements the paper's interface manager: the
// component that makes the database aware of the spreadsheet interface. It
// assigns every piece of relational data displayed on a sheet a *context*
// (sheet + positional address), maintains the mapping between tuple keys /
// row ids and display positions through the positional index, and drives
// two-way synchronisation: edits on bound cells become database updates, and
// database changes refresh the bound regions (paper Feature 3).
//
// Two binding kinds exist, mirroring the paper's constructs:
//
//   - Table bindings (DBTABLE): a sheet region two-way bound to a relational
//     table. Large tables are materialised window-by-window as the user
//     pans; small tables are materialised in full.
//   - Query bindings (DBSQL): the read-only result of an arbitrary SQL query
//     spilled into a region, re-executed when the database or the sheet
//     cells it references change.
package interfacemgr

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/index/positional"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
	"github.com/dataspread/dataspread/internal/window"
)

// DefaultMaterializeAllLimit is the row count up to which a table binding is
// materialised in full; larger tables are materialised window-by-window.
const DefaultMaterializeAllLimit = 5000

// Kind distinguishes table bindings from query bindings.
type Kind int

// Binding kinds.
const (
	KindTable Kind = iota
	KindQuery
)

// QueryRunner executes a SQL string against the engine with the spreadsheet
// accessor attached (provided by the core package).
type QueryRunner func(sql string) (*sqlexec.Result, error)

// Binding is one bound region on a sheet.
type Binding struct {
	ID        int64
	Kind      Kind
	SheetName string
	Anchor    sheet.Address
	// Table is the bound table name (table bindings).
	Table string
	// SQL is the query text (query bindings).
	SQL string
	// Columns are the displayed column names (header row).
	Columns []string
	// WindowOnly is true when the binding materialises only the visible
	// window (large tables).
	WindowOnly bool

	// positions maps display position (0-based data row) to RowID for
	// table bindings.
	positions *positional.Index
	// isSelect, tables and refs are a query binding's SQL resolved once, at
	// bind time: whether it is a SELECT, the lower-cased names of the tables
	// it reads (sub-selects included; none for DML) and the sheet ranges its
	// RANGEVALUE/RANGETABLE constructs read.
	isSelect bool
	tables   []string
	refs     []formula.Reference
	// refreshMu serialises a query binding's refreshes: one requested while
	// another runs waits for it, then checks the memo that one left.
	refreshMu sync.Mutex
	// memo is the input fingerprint of the last successful refresh of a
	// query binding; a matching fingerprint skips re-execution (memo.go).
	memo *queryFingerprint
	// extent is the sheet region currently materialised (header included);
	// written under Manager.mu.
	extent sheet.Range
	hasExt bool
}

// Extent returns the currently materialised region and whether any cells are
// materialised.
func (b *Binding) Extent() (sheet.Range, bool) { return b.extent, b.hasExt }

// RowCount returns the number of data rows tracked by a table binding.
func (b *Binding) RowCount() int {
	if b.positions == nil {
		return 0
	}
	return b.positions.Len()
}

// Stats counts interface-manager activity for experiments.
type Stats struct {
	CellsWritten   uint64 // cells materialised onto sheets
	Refreshes      uint64 // full binding refreshes
	IncrementalOps uint64 // incremental row-level refreshes
	EditsPushed    uint64 // sheet edits translated to database updates
	MemoHits       uint64 // query refreshes skipped: inputs unchanged (memo.go)
}

// Manager owns all bindings of a workbook.
type Manager struct {
	mu       sync.Mutex
	db       *sqlexec.Database
	book     *sheet.Book
	engine   *compute.Engine
	windows  *window.Manager
	runQuery QueryRunner
	sheets   sqlexec.SheetAccessor // what runQuery resolves RANGEVALUE with
	bindings map[int64]*Binding
	nextID   int64
	allLimit int
	stats    Stats
	unlisten func() // cancels the database change subscription
}

// New creates an interface manager. SetQueryRunner must be called before
// query bindings are used.
func New(db *sqlexec.Database, book *sheet.Book, engine *compute.Engine, windows *window.Manager) *Manager {
	m := &Manager{
		db:       db,
		book:     book,
		engine:   engine,
		windows:  windows,
		bindings: make(map[int64]*Binding),
		nextID:   1,
		allLimit: DefaultMaterializeAllLimit,
	}
	m.unlisten = db.Listen(m.onDBChanges)
	return m
}

// Close detaches the manager from the database's change feed. Bindings stop
// refreshing; the manager is not usable afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unlisten != nil {
		m.unlisten()
		m.unlisten = nil
	}
}

// SetQueryRunner installs the SQL runner used by query bindings and the
// sheet accessor it executes with, which the memo plans the SQL against.
func (m *Manager) SetQueryRunner(fn QueryRunner, sheets sqlexec.SheetAccessor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runQuery, m.sheets = fn, sheets
}

// SetMaterializeAllLimit overrides the full-materialisation threshold.
func (m *Manager) SetMaterializeAllLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allLimit = n
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Bindings returns all bindings.
func (m *Manager) Bindings() []*Binding {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Binding, 0, len(m.bindings))
	for _, b := range m.bindings {
		out = append(out, b)
	}
	return out
}

// Binding returns the binding with the given id.
func (m *Manager) Binding(id int64) (*Binding, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bindings[id]
	return b, ok
}

// BindingAt returns the binding whose materialised extent contains the cell.
func (m *Manager) BindingAt(sheetName string, a sheet.Address) (*Binding, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.bindings {
		if strings.EqualFold(b.SheetName, sheetName) && b.hasExt && b.extent.Contains(a) {
			return b, true
		}
	}
	return nil, false
}

// Unbind removes a binding and clears its materialised cells.
func (m *Manager) Unbind(id int64) {
	m.mu.Lock()
	b, ok := m.bindings[id]
	if ok {
		delete(m.bindings, id)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	m.engine.UnregisterExternal(externalKey(id))
	if sh, found := m.book.Sheet(b.SheetName); found && b.hasExt {
		sh.ClearRange(b.extent)
	}
}

func externalKey(id int64) string { return fmt.Sprintf("binding-%d", id) }

// --- binding creation ---

// BindTable creates a DBTABLE binding: the table's contents appear at the
// anchor with a header row, kept in two-way sync with the database.
func (m *Manager) BindTable(sheetName string, anchor sheet.Address, table string) (*Binding, error) {
	tbl, err := m.db.Table(table)
	if err != nil {
		return nil, err
	}
	rowCount, err := m.db.RowCount(table)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	b := &Binding{
		ID:         m.nextID,
		Kind:       KindTable,
		SheetName:  sheetName,
		Anchor:     anchor,
		Table:      tbl.Name,
		Columns:    tbl.ColumnNames(),
		WindowOnly: rowCount > m.allLimit,
		positions:  positional.New(),
	}
	m.nextID++
	m.bindings[b.ID] = b
	m.mu.Unlock()

	// Build the positional index: display order is RowID order.
	ids := make([]uint64, 0, rowCount)
	if err := m.db.Scan(table, func(id tablestore.RowID, _ []sheet.Value) bool {
		ids = append(ids, uint64(id))
		return true
	}); err != nil {
		return nil, err
	}
	if err := b.positions.BulkLoad(ids); err != nil {
		return nil, err
	}
	if err := m.materializeTable(b); err != nil {
		return nil, err
	}
	return b, nil
}

// BindQuery creates a DBSQL binding: the query result is spilled at the
// anchor and refreshed when its inputs change. Re-entering the same query
// at the same anchor — the DBSQL recalculation pattern — reuses the
// existing binding and only refreshes it; a different formula at the anchor
// replaces the binding there.
func (m *Manager) BindQuery(sheetName string, anchor sheet.Address, sql string) (*Binding, error) {
	m.mu.Lock()
	runner := m.runQuery
	m.mu.Unlock()
	if runner == nil {
		return nil, fmt.Errorf("interfacemgr: no query runner configured")
	}
	if prev := m.bindingAt(sheetName, anchor); prev != nil {
		if prev.Kind == KindQuery && prev.SQL == sql {
			if err := m.refreshQuery(prev); err != nil {
				return nil, err
			}
			return prev, nil
		}
		m.Unbind(prev.ID)
	}
	b := &Binding{
		Kind:      KindQuery,
		SheetName: sheetName,
		Anchor:    anchor,
		SQL:       sql,
	}
	b.refs, b.tables, b.isSelect = m.resolveQuery(sql)
	m.mu.Lock()
	b.ID = m.nextID
	m.nextID++
	m.bindings[b.ID] = b
	m.mu.Unlock()

	// Register sheet dependencies (RANGEVALUE / RANGETABLE references) so
	// the query re-runs when those cells change.
	if refs := b.refs; len(refs) > 0 {
		id := b.ID
		m.engine.RegisterExternal(externalKey(b.ID), refs, sheetName, func() {
			_ = m.RefreshBinding(id)
		})
	}
	if err := m.refreshQuery(b); err != nil {
		m.Unbind(b.ID)
		return nil, err
	}
	return b, nil
}

// bindingAt returns the binding anchored at the given cell, if any.
func (m *Manager) bindingAt(sheetName string, anchor sheet.Address) *Binding {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.bindings {
		if b.SheetName == sheetName && b.Anchor == anchor {
			return b
		}
	}
	return nil
}

// resolveQuery resolves a query binding's SQL once: the sheet ranges its
// RANGEVALUE/RANGETABLE constructs read, the lower-cased names of the tables
// a SELECT reads (sub-selects included), and whether it is a SELECT at all.
// Parsing goes through the database's prepared-plan cache.
func (m *Manager) resolveQuery(sql string) (refs []formula.Reference, tables []string, isSelect bool) {
	p, err := m.db.Prepare(sql)
	if err != nil {
		return nil, nil, false
	}
	sel, ok := p.Statement().(*sqlparser.SelectStmt)
	if !ok {
		return nil, nil, false
	}
	addRef := func(refText string) {
		sheetName, rangeText := splitSheetRef(refText)
		r, err := sheet.ParseRange(rangeText)
		if err != nil {
			return
		}
		refs = append(refs, formula.Reference{Sheet: sheetName, Range: r})
	}
	var walkExpr func(e sqlparser.Expr)
	walkExpr = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.RangeValueExpr:
			addRef(x.Ref)
		case *sqlparser.BinaryExpr:
			walkExpr(x.Left)
			walkExpr(x.Right)
		case *sqlparser.UnaryExpr:
			walkExpr(x.X)
		case *sqlparser.FuncCall:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *sqlparser.InExpr:
			walkExpr(x.X)
			for _, a := range x.List {
				walkExpr(a)
			}
		case *sqlparser.BetweenExpr:
			walkExpr(x.X)
			walkExpr(x.Lo)
			walkExpr(x.Hi)
		case *sqlparser.LikeExpr:
			walkExpr(x.X)
			walkExpr(x.Pattern)
		case *sqlparser.IsNullExpr:
			walkExpr(x.X)
		case *sqlparser.CaseExpr:
			walkExpr(x.Operand)
			for _, w := range x.Whens {
				walkExpr(w.When)
				walkExpr(w.Then)
			}
			walkExpr(x.Else)
		}
	}
	var walkTable func(t sqlparser.TableRef)
	walkTable = func(t sqlparser.TableRef) {
		switch x := t.(type) {
		case *sqlparser.TableName:
			if name := strings.ToLower(x.Name); !slices.Contains(tables, name) {
				tables = append(tables, name)
			}
		case *sqlparser.RangeTableRef:
			addRef(x.Ref)
		case *sqlparser.SubSelect:
			walkSelect(x.Select, walkExpr, walkTable)
		}
	}
	walkSelect(sel, walkExpr, walkTable)
	return refs, tables, true
}

func walkSelect(sel *sqlparser.SelectStmt, walkExpr func(sqlparser.Expr), walkTable func(sqlparser.TableRef)) {
	for _, item := range sel.Columns {
		if item.Expr != nil {
			walkExpr(item.Expr)
		}
	}
	if sel.From != nil {
		walkTable(sel.From)
	}
	for _, j := range sel.Joins {
		walkTable(j.Table)
		if j.On != nil {
			walkExpr(j.On)
		}
	}
	if sel.Where != nil {
		walkExpr(sel.Where)
	}
	for _, g := range sel.GroupBy {
		walkExpr(g)
	}
	if sel.Having != nil {
		walkExpr(sel.Having)
	}
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr)
	}
}

// splitSheetRef splits "Sheet2!A1:B5" into its sheet and range parts.
func splitSheetRef(ref string) (sheetName, rangeText string) {
	if i := strings.Index(ref, "!"); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}
