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
//   - Query bindings (DBSQL): the result of one SELECT spilled into a
//     region, re-executed when the database or the sheet cells it
//     references change. Any other statement is refused: a cell shows data,
//     it never writes it.
package interfacemgr

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/dberr"
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

// Binding is one bound region on a sheet.
type Binding struct {
	ID        int64
	Kind      Kind
	SheetName string
	Anchor    sheet.Address
	// Table is the bound table name (table bindings).
	Table string
	// SQL is the query text (query bindings): always a SELECT.
	SQL string
	// Columns are the displayed column names (header row).
	Columns []string
	// WindowOnly is true when the binding materialises only the visible
	// window (large tables).
	WindowOnly bool

	// positions maps display position (0-based data row) to RowID for
	// table bindings.
	positions *positional.Index
	// query, tables and refs are a query binding's SQL resolved once, at
	// bind time: the prepared SELECT every refresh runs and captures its
	// sketch from, the lower-cased names of the tables it reads (sub-selects
	// included) and the sheet ranges its RANGEVALUE/RANGETABLE constructs
	// read.
	query  *sqlexec.Prepared
	tables []string
	refs   []formula.Reference
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
	mu      sync.Mutex
	db      *sqlexec.Database
	book    *sheet.Book
	engine  *compute.Engine
	windows *window.Manager
	sheets  sqlexec.SheetAccessor // what refreshes resolve RANGEVALUE with
	// run executes a query binding's SELECT on the manager's own read
	// session, which only refreshes use — concurrently, as a SELECT changes
	// no session state; tests wrap it to act mid-refresh.
	run      func(*sqlexec.Prepared) (*sqlexec.Result, error)
	bindings map[int64]*Binding
	nextID   int64
	allLimit int
	stats    Stats
	unlisten func() // cancels the database change subscription
}

// New creates an interface manager. Query bindings resolve RANGEVALUE and
// RANGETABLE through sheets (nil when no binding reads the sheet) and run
// on a read session of the manager's own.
func New(db *sqlexec.Database, book *sheet.Book, engine *compute.Engine, windows *window.Manager, sheets sqlexec.SheetAccessor) *Manager {
	sess := db.NewSession(sheets)
	m := &Manager{
		db:      db,
		book:    book,
		engine:  engine,
		windows: windows,
		sheets:  sheets,
		run: func(p *sqlexec.Prepared) (*sqlexec.Result, error) {
			return sess.ExecutePreparedContext(context.Background(), p)
		},
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

// BindQuery creates a DBSQL binding: the result of the SELECT sql is
// spilled at the anchor and refreshed when its inputs change. Any other
// statement — DML, DDL, transaction control, EXPLAIN — fails with
// dberr.ErrUnsupported and changes nothing. Re-entering the same query at
// the same anchor — the DBSQL recalculation pattern — reuses the existing
// binding and only refreshes it; a different query at the anchor replaces
// the binding there.
func (m *Manager) BindQuery(sheetName string, anchor sheet.Address, sql string) (*Binding, error) {
	prev := m.bindingAt(sheetName, anchor)
	if prev != nil && prev.Kind == KindQuery && prev.SQL == sql {
		if err := m.refreshQuery(prev); err != nil {
			return nil, err
		}
		return prev, nil
	}
	p, err := m.db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := p.Statement().(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("interfacemgr: DBSQL runs a SELECT only: %w", dberr.ErrUnsupported)
	}
	if prev != nil {
		m.Unbind(prev.ID)
	}
	b := &Binding{
		Kind:      KindQuery,
		SheetName: sheetName,
		Anchor:    anchor,
		SQL:       sql,
		query:     p,
	}
	b.resolve(sel)
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

// resolve records what a query binding's SELECT reads: the lower-cased
// names of its tables (sub-selects included) and the sheet ranges of its
// RANGEVALUE/RANGETABLE constructs.
func (b *Binding) resolve(sel *sqlparser.SelectStmt) {
	addRef := func(refText string) {
		sheetName, rangeText := splitSheetRef(refText)
		if r, err := sheet.ParseRange(rangeText); err == nil {
			b.refs = append(b.refs, formula.Reference{Sheet: sheetName, Range: r})
		}
	}
	sqlparser.Walk(sel, func(e sqlparser.Expr) {
		if rv, ok := e.(*sqlparser.RangeValueExpr); ok {
			addRef(rv.Ref)
		}
	}, func(t sqlparser.TableRef) {
		switch x := t.(type) {
		case *sqlparser.TableName:
			if name := strings.ToLower(x.Name); !slices.Contains(b.tables, name) {
				b.tables = append(b.tables, name)
			}
		case *sqlparser.RangeTableRef:
			addRef(x.Ref)
		}
	})
}

// splitSheetRef splits "Sheet2!A1:B5" into its sheet and range parts.
func splitSheetRef(ref string) (sheetName, rangeText string) {
	if i := strings.Index(ref, "!"); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}
