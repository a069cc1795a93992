// Package core is DataSpread's unification layer: the public API that ties
// the spreadsheet front-end (sheets, formulas, windows) to the embedded
// relational engine (catalog, storage, SQL) through the interface manager and
// the compute engine — the architecture of the paper's Figure 1.
//
// A DataSpread instance owns one workbook and one database. Users interact
// with it exactly as the paper describes:
//
//   - ordinary spreadsheet editing (SetCell with literals or formulas),
//   - DBSQL("...") cell formulas that run a SELECT — possibly reading sheet
//     data via RANGEVALUE/RANGETABLE — and spill its result into the sheet;
//     any other statement in a DBSQL cell is refused,
//   - DBTABLE("table") cell formulas that two-way bind a region to a
//     relational table,
//   - exporting a sheet range as a new relational table (Figure 2b),
//   - direct SQL over everything (Query), and
//   - window operations (ScrollTo) that drive fetch-on-demand and
//     visible-first computation.
//
// dslint:errdomain
// dslint:vfsonly
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/interfacemgr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
	"github.com/dataspread/dataspread/internal/txn"
	"github.com/dataspread/dataspread/internal/window"
)

// Options configure a DataSpread instance.
type Options struct {
	// GroupSize is the attribute-group size of new tables (0 = default).
	GroupSize int
	// WindowRows/WindowCols size the visible pane.
	WindowRows int
	WindowCols int
	// MaterializeAllLimit overrides the row count above which DBTABLE
	// bindings materialise only the visible window.
	MaterializeAllLimit int
	// Workers bounds the relational engine's worker pool for morsel-driven
	// parallel scans, aggregation and joins (0 = GOMAXPROCS, 1 = serial).
	Workers int

	// Durability options, honoured by OpenFile only.
	//
	// BufferPoolPages overrides the relational buffer pool capacity in
	// pages (nil = default; 0 disables caching — benchmarks use it to
	// expose backend block counts).
	BufferPoolPages *int
	// CheckpointWALBytes is the WAL size that nudges the background
	// checkpointer. 0 selects the default (4 MiB); a negative value
	// disables background checkpointing (explicit Checkpoint still works).
	CheckpointWALBytes int64
	// FS is the filesystem every durable file (page heap, WAL, lock) is
	// opened through. Nil selects the real OS filesystem; fault-injection
	// tests substitute a vfs.FaultFS.
	FS vfs.FS
}

// DataSpread is the unified spreadsheet–database system.
type DataSpread struct {
	book    *sheet.Book
	db      *sqlexec.Database
	engine  *compute.Engine
	windows *window.Manager
	iface   *interfacemgr.Manager
	conn    *Conn // the built-in connection (conn.go)

	// RANGETABLE scan cache (accessor.go), validated by sheet versions.
	rtMu    sync.Mutex
	rtCache map[string]*rangeTableEntry

	// Durability state (durable.go, checkpointer.go). Nil/zero for
	// in-memory instances. cmdMu serialises each mutating command with its
	// WAL append so the log order always matches the apply order, and so a
	// checkpoint capture cannot interleave with a command that would then
	// be in neither the checkpoint nor the surviving WAL tail.
	cmdMu        sync.Mutex
	backend      *pager.FileStore
	wal          *txn.Manager
	unlock       func() error // releases the single-writer workbook lock
	replaying    bool
	recoveryErrs []error
	replayedOps  int // commands re-executed by the last OpenFile

	// Checkpoint state. root is the current durable root (guarded by
	// ckptMu together with the whole checkpoint path); the background
	// checkpointer drains on Close.
	ckptMu        sync.Mutex
	root          rootInfo
	ckptThreshold int64
	ckptTrigger   chan struct{}
	ckptStop      chan struct{}
	ckptDone      chan struct{}
	ckptErrMu     sync.Mutex
	ckptErr       error // last background checkpoint failure
	// ckptRetryBase is the first backoff delay after a transient background
	// checkpoint failure (tests shrink it). Zero selects the default.
	ckptRetryBase time.Duration

	// poisonErr, once set, degrades the workbook to read-only: every later
	// mutating command fails with dberr.ErrReadOnly while reads keep being
	// served from the committed in-memory state. Set on the first I/O
	// failure that leaves durability in doubt — a failed WAL append, a
	// storage error during command execution, or a commit-uncertain
	// checkpoint root flip. Cleared only by reopening the workbook.
	poisonMu  sync.Mutex
	poisonErr error
}

// New creates a DataSpread instance with a single sheet named "Sheet1".
func New(opts Options) *DataSpread { return newDataSpread(opts, nil) }

// newDataSpread builds an instance whose relational storage sits on the
// given page backend (nil = fresh in-memory store). OpenFile passes the
// workbook file's backend so table pages live in the file itself.
func newDataSpread(opts Options, backend pager.Backend) *DataSpread {
	book := sheet.NewBook()
	db := sqlexec.NewDatabase(sqlexec.Config{
		GroupSize:       opts.GroupSize,
		BufferPoolPages: opts.BufferPoolPages,
		Backend:         backend,
		Workers:         opts.Workers,
	})
	engine := compute.New(book)
	windows := window.NewManager(opts.WindowRows, opts.WindowCols)
	engine.SetVisibleProvider(windows.Visible)
	ds := &DataSpread{
		book:    book,
		db:      db,
		engine:  engine,
		windows: windows,
	}
	ds.iface = interfacemgr.New(db, book, engine, windows, &sheetAccessor{ds: ds})
	if opts.MaterializeAllLimit > 0 {
		ds.iface.SetMaterializeAllLimit(opts.MaterializeAllLimit)
	}
	ds.conn = ds.NewConn()
	ds.book.AddSheet("Sheet1") // before any WAL exists; never logged
	return ds
}

// Book returns the workbook.
func (ds *DataSpread) Book() *sheet.Book { return ds.book }

// DB returns the embedded relational engine.
func (ds *DataSpread) DB() *sqlexec.Database { return ds.db }

// Engine returns the compute engine.
func (ds *DataSpread) Engine() *compute.Engine { return ds.engine }

// Windows returns the window manager.
func (ds *DataSpread) Windows() *window.Manager { return ds.windows }

// Interface returns the interface manager.
func (ds *DataSpread) Interface() *interfacemgr.Manager { return ds.iface }

// AddSheet creates (or returns) a sheet with the given name. The error is
// non-nil only when the creation could not be made durable: the sheet exists
// in memory but edits on it would not survive a restart.
func (ds *DataSpread) AddSheet(name string) (*sheet.Sheet, error) {
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return nil, err
	}
	_, known := ds.book.Sheet(name)
	sh := ds.book.AddSheet(name)
	if !known {
		if lerr := ds.logCommand(txn.Op{Kind: txn.OpAddSheet, Detail: name, Args: []string{name}}); lerr != nil {
			return sh, fmt.Errorf("core: sheet created but not logged: %w", lerr)
		}
	}
	return sh, nil
}

// sheetOf resolves a sheet by name, case-insensitively.
func (ds *DataSpread) sheetOf(name string) (*sheet.Sheet, string, error) {
	if sh, ok := ds.book.Sheet(name); ok {
		return sh, sh.Name(), nil
	}
	return nil, "", fmt.Errorf("core: unknown sheet %q: %w", name, dberr.ErrSheetNotFound)
}

// --- cell-level interaction ---

// SetCell enters user input into a cell, exactly as typing into the grid:
//   - input beginning with "=" is a formula; DBSQL/DBTABLE formulas create
//     bindings through the interface manager, anything else goes to the
//     compute engine;
//   - other input is parsed as a literal (number, boolean, text); if the
//     target cell is bound to a relational table the edit is pushed to the
//     database (two-way sync), otherwise it is ordinary sheet content.
//
// The returned wait function blocks until asynchronous background
// recomputation triggered by the edit has finished; callers that only care
// about the visible window may ignore it.
func (ds *DataSpread) SetCell(sheetName, addr, input string) (wait func(), err error) {
	a, err := sheet.ParseAddress(addr)
	if err != nil {
		return nil, err
	}
	return ds.SetCellAt(sheetName, a, input)
}

// SetCellAt is SetCell with a parsed address.
func (ds *DataSpread) SetCellAt(sheetName string, a sheet.Address, input string) (wait func(), err error) {
	_, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return nil, err
	}
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return nil, err
	}
	wait, err = ds.setCellDispatch(canonical, a, input)
	if err != nil {
		return wait, ds.notePoison(err)
	}
	if lerr := ds.logCommand(txn.Op{
		Kind:   txn.OpCellSet,
		Detail: canonical + "!" + a.String(),
		Args:   []string{canonical, a.String(), input},
	}); lerr != nil {
		return wait, fmt.Errorf("core: cell set applied but not logged: %w", lerr)
	}
	return wait, nil
}

// setCellDispatch routes raw cell input exactly as SetCell documents, without
// WAL logging (replay re-enters here via SetCellAt with logging suppressed).
func (ds *DataSpread) setCellDispatch(canonical string, a sheet.Address, input string) (wait func(), err error) {
	noop := func() {}
	trimmed := strings.TrimSpace(input)
	if strings.HasPrefix(trimmed, "=") {
		if name, ok := formula.IsDBFormula(trimmed); ok {
			return noop, ds.setDBFormula(canonical, a, name, trimmed)
		}
		return ds.engine.SetFormula(canonical, a, trimmed)
	}
	v := sheet.ParseLiteral(input)
	// Route edits on bound cells to the database (Feature 3).
	if handled, err := ds.iface.HandleSheetEdit(canonical, a, v); handled {
		return noop, err
	}
	if v.IsEmpty() {
		return ds.engine.ClearCell(canonical, a), nil
	}
	return ds.engine.SetValue(canonical, a, v), nil
}

// SetValues bulk-loads a dense matrix of literal values with its top-left
// corner at topLeft. It is the fast path for imports: values land on the
// sheet directly (no per-cell input parsing, no edit routing to bound
// regions) and are WAL-logged as one record holding every cell of the
// matrix — an empty value clears its cell, live and on replay — so durable
// workbooks recover them. Dependent formulas recalculate on their next
// trigger.
func (ds *DataSpread) SetValues(sheetName, topLeft string, rows [][]sheet.Value) error {
	a, err := sheet.ParseAddress(topLeft)
	if err != nil {
		return err
	}
	sh, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return err
	}
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return err
	}
	sh.SetValues(a, rows)
	var ops []txn.Op
	for r, row := range rows {
		for c, v := range row {
			cell := sheet.Addr(a.Row+r, a.Col+c)
			ops = append(ops, txn.Op{
				Kind:   txn.OpCellValue,
				Detail: canonical + "!" + cell.String(),
				Args:   []string{canonical, cell.String(), encodeValue(v)},
			})
		}
	}
	if lerr := ds.logCommand(ops...); lerr != nil {
		return fmt.Errorf("core: values applied but not logged: %w", lerr)
	}
	return nil
}

// CellCount returns the number of materialised cells of a sheet (windowed
// table bindings keep this far below the bound table's cardinality).
func (ds *DataSpread) CellCount(sheetName string) (int, error) {
	sh, _, err := ds.sheetOf(sheetName)
	if err != nil {
		return 0, err
	}
	return sh.CellCount(), nil
}

// Get returns the current value of a cell.
func (ds *DataSpread) Get(sheetName, addr string) (sheet.Value, error) {
	a, err := sheet.ParseAddress(addr)
	if err != nil {
		return sheet.Empty(), err
	}
	sh, _, err := ds.sheetOf(sheetName)
	if err != nil {
		return sheet.Empty(), err
	}
	return sh.Value(a), nil
}

// GetRange returns the values of a range as a dense matrix.
func (ds *DataSpread) GetRange(sheetName, rng string) ([][]sheet.Value, error) {
	r, err := sheet.ParseRange(rng)
	if err != nil {
		return nil, err
	}
	sh, _, err := ds.sheetOf(sheetName)
	if err != nil {
		return nil, err
	}
	return sh.Values(r), nil
}

// Wait blocks until all background recomputation has finished. Tests and
// benchmarks use it to observe a quiescent state.
func (ds *DataSpread) Wait() { ds.engine.Wait() }

// --- SQL and window operations ---

// Query executes a SQL statement on the built-in Conn, with full access to
// sheet data through RANGEVALUE/RANGETABLE.
func (ds *DataSpread) Query(sql string) (*sqlexec.Result, error) {
	return ds.QueryContext(context.Background(), sql)
}

// QueryContext executes a SQL statement on the built-in Conn (see
// Conn.ExecutePrepared), binding args to its '?' placeholders and honouring
// ctx cancellation at executor batch boundaries.
func (ds *DataSpread) QueryContext(ctx context.Context, sql string, args ...sheet.Value) (*sqlexec.Result, error) {
	return ds.conn.QueryContext(ctx, sql, args...)
}

// sqlOp encodes a (possibly parameterized) mutating statement as a WAL
// command: the text first, then one encoded value per bound argument, so
// replay re-executes it with identical bindings.
func sqlOp(sql string, args []sheet.Value) txn.Op {
	op := txn.Op{Kind: txn.OpSQL, Detail: sql, Args: make([]string, 0, 1+len(args))}
	op.Args = append(op.Args, sql)
	for _, v := range args {
		op.Args = append(op.Args, encodeValue(v))
	}
	return op
}

// QueryScript executes a semicolon-separated SQL script on the built-in Conn
// and returns the last statement's result (nil for an empty script). Its
// statements run and log as if sent one at a time — BEGIN, COMMIT, ROLLBACK
// and an open transaction scope them alike — except that what the script
// commits outside a transaction is one WAL record. The first statement that
// fails ends the script. Scripts do not accept placeholders.
func (ds *DataSpread) QueryScript(sql string) (*sqlexec.Result, error) {
	stmts, texts, err := sqlparser.ParseMulti(sql)
	if err != nil {
		return nil, err
	}
	ps := make([]*sqlexec.Prepared, len(stmts))
	for i, stmt := range stmts {
		ps[i] = sqlexec.PrepareParsed(texts[i], stmt)
	}
	return ds.execute(context.Background(), ds.conn.sess, ps, nil)
}

// ScrollTo moves the visible window of a sheet and refreshes window-bound
// tables (fetch-on-demand panning).
func (ds *DataSpread) ScrollTo(sheetName, topLeft string) error {
	a, err := sheet.ParseAddress(topLeft)
	if err != nil {
		return err
	}
	_, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return err
	}
	ds.windows.ScrollTo(canonical, a)
	return ds.iface.OnScroll(canonical)
}

// VisibleValues returns the values of the current window of a sheet.
func (ds *DataSpread) VisibleValues(sheetName string) ([][]sheet.Value, error) {
	sh, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return nil, err
	}
	return sh.Values(ds.windows.Window(canonical)), nil
}

// --- import / export (paper Feature 2) ---

// ExportOptions configure CreateTableFromRange.
type ExportOptions struct {
	// PrimaryKey names the column(s) to declare as the primary key.
	PrimaryKey []string
	// KeepRegion, when true, leaves the original cells in place instead of
	// replacing them with a DBTABLE binding.
	KeepRegion bool
}

// CreateTableFromRange exports a sheet range as a new relational table: the
// schema is inferred from the header row and the data (paper Figure 2b), the
// table is created with its rows as one unit — a row that fails leaves no
// table behind — and, unless KeepRegion is set, the region is replaced by a
// DBTABLE binding so it stays in sync with the database from then on.
func (ds *DataSpread) CreateTableFromRange(sheetName, rng, tableName string, opts ExportOptions) (*interfacemgr.Binding, error) {
	r, err := sheet.ParseRange(rng)
	if err != nil {
		return nil, err
	}
	sh, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return nil, err
	}
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return nil, err
	}
	values := sh.Values(r)
	hasData := false
	for _, row := range values {
		for _, v := range row {
			if !v.IsEmpty() {
				hasData = true
				break
			}
		}
	}
	if !hasData {
		return nil, fmt.Errorf("core: range %s has no data to export: %w", rng, dberr.ErrUnsupported)
	}
	cols, data, _ := catalog.InferSchema(values)
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: range %s has no data to export: %w", rng, dberr.ErrUnsupported)
	}
	for i := range cols {
		for _, pk := range opts.PrimaryKey {
			if strings.EqualFold(cols[i].Name, pk) {
				cols[i].PrimaryKey = true
			}
		}
	}
	if err := ds.db.CreateTable(tableName, cols, data...); err != nil {
		return nil, ds.notePoison(fmt.Errorf("core: exporting range %s: %w", rng, err))
	}
	logExport := func() error {
		args := []string{canonical, rng, tableName, "0"}
		if opts.KeepRegion {
			args[3] = "1"
		}
		args = append(args, opts.PrimaryKey...)
		return ds.logCommand(txn.Op{
			Kind:   txn.OpExportRange,
			Table:  tableName,
			Detail: canonical + "!" + rng,
			Args:   args,
		})
	}
	if opts.KeepRegion {
		if lerr := logExport(); lerr != nil {
			return nil, fmt.Errorf("core: export applied but not logged: %w", lerr)
		}
		return nil, nil
	}
	// Replace the region with a DBTABLE binding anchored at its top-left.
	sh.ClearRange(r)
	b, err := ds.iface.BindTable(canonical, r.Start, tableName)
	if err != nil {
		return nil, err
	}
	if lerr := logExport(); lerr != nil {
		return b, fmt.Errorf("core: export applied but not logged: %w", lerr)
	}
	return b, nil
}

// ImportTable binds an existing relational table at the given anchor cell
// (DBTABLE import direction).
func (ds *DataSpread) ImportTable(sheetName, anchor, tableName string) (*interfacemgr.Binding, error) {
	a, err := sheet.ParseAddress(anchor)
	if err != nil {
		return nil, err
	}
	_, canonical, err := ds.sheetOf(sheetName)
	if err != nil {
		return nil, err
	}
	ds.cmdMu.Lock()
	defer ds.cmdMu.Unlock()
	if err := ds.checkWritable(); err != nil {
		return nil, err
	}
	b, err := ds.iface.BindTable(canonical, a, tableName)
	if err != nil {
		return nil, ds.notePoison(err)
	}
	if lerr := ds.logCommand(txn.Op{
		Kind:   txn.OpImportTable,
		Table:  tableName,
		Detail: canonical + "!" + a.String(),
		Args:   []string{canonical, a.String(), tableName},
	}); lerr != nil {
		return b, fmt.Errorf("core: import applied but not logged: %w", lerr)
	}
	return b, nil
}

// --- DBSQL / DBTABLE cell formulas ---

// setDBFormula creates the binding for a DBSQL/DBTABLE formula entered at a
// cell: the formula text is stored in the cell and the result is spilled
// into the region below/right of it.
func (ds *DataSpread) setDBFormula(sheetName string, a sheet.Address, name, src string) error {
	_, args, err := formula.DBArgs(src)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("core: %s requires an argument: %w", name, dberr.ErrSyntax)
	}
	switch name {
	case "DBSQL":
		_, err := ds.iface.BindQuery(sheetName, a, args[0])
		return err
	case "DBTABLE":
		_, err := ds.iface.BindTable(sheetName, a, args[0])
		return err
	default:
		return fmt.Errorf("core: unknown database formula %q: %w", name, dberr.ErrSyntax)
	}
}
