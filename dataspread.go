package dataspread

import (
	"context"
	"fmt"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/sqlexec"
)

// Options configure a DB. The zero value is a usable default.
type Options struct {
	// GroupSize is how many columns of a new table are stored together in
	// one attribute group (0 = default, 4) by the paper's hybrid storage
	// manager. It spans the classic layouts: 1 stores every column apart,
	// like a column store; a value at least the table's width stores whole
	// tuples together, like a row store. At any size, adding a column
	// writes only the new column's blocks.
	GroupSize int
	// WindowRows/WindowCols size the visible spreadsheet pane used by
	// windowed table bindings (0 = defaults).
	WindowRows int
	WindowCols int
	// CheckpointWALBytes is the WAL size that triggers a background
	// checkpoint (OpenFile only; 0 = default, negative disables).
	CheckpointWALBytes int64
	// Workers bounds the worker pool for morsel-driven parallel query
	// execution (0 = GOMAXPROCS, 1 = serial). Large scans, aggregations
	// and joins run against an epoch-pinned snapshot, so parallel readers
	// hold no engine lock and never block writers.
	Workers int
}

func (o Options) coreOptions() core.Options {
	return core.Options{
		GroupSize:          o.GroupSize,
		WindowRows:         o.WindowRows,
		WindowCols:         o.WindowCols,
		CheckpointWALBytes: o.CheckpointWALBytes,
		Workers:            o.Workers,
	}
}

// DB is an embedded DataSpread instance: a workbook of spreadsheets unified
// with a relational database. All methods are safe for concurrent use except
// where noted; SQL runs through connections (Conn), and the DB itself offers
// a default connection for one-off statements.
type DB struct {
	ds   *core.DataSpread
	conn *Conn
}

// New opens an in-memory instance. It cannot fail; data is lost on Close.
func New(opts Options) *DB {
	return wrap(core.New(opts.coreOptions()))
}

// OpenFile opens (creating if necessary) a durable workbook file. State is
// recovered from the file's checkpoint and write-ahead log; a workbook open
// in another process fails with ErrConflict.
func OpenFile(path string, opts Options) (*DB, error) {
	ds, err := core.OpenFile(path, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return wrap(ds), nil
}

func wrap(ds *core.DataSpread) *DB {
	db := &DB{ds: ds}
	db.conn = &Conn{db: db, c: ds.Conn()}
	return db
}

// Close flushes and closes the workbook. In-memory instances close
// trivially.
func (db *DB) Close() error { return db.ds.Close() }

// Checkpoint writes a full checkpoint and compacts the WAL (durable
// workbooks only). While a Conn's transaction owns the tables (see
// Conn.Begin) it fails with ErrConflict and writes nothing: the checkpoint
// would hold uncommitted changes. Background checkpoints wait for the
// transaction's end instead.
func (db *DB) Checkpoint() error { return db.ds.Checkpoint() }

// RecoveryErrors returns the per-command failures encountered while
// recovering a durable workbook in OpenFile; empty on a clean recovery.
func (db *DB) RecoveryErrors() []error { return db.ds.RecoveryErrors() }

// Health reports the workbook's degradation state: nil while healthy, an
// ErrReadOnly-classified error naming the original I/O failure once the
// workbook has degraded to read-only mode, or the last background
// checkpoint failure if one is pending. Reading Health does not consume the
// recorded checkpoint error (Checkpoint and Close do).
func (db *DB) Health() error { return db.ds.Health() }

// Degrade forces the workbook into degraded read-only mode, as if cause (or
// a generic fencing error when nil) had poisoned it. It is an operational
// fence — quarantine a suspect workbook while keeping reads available — and
// the hook fault harnesses use to produce a deterministically degraded
// instance. Degradation is permanent for this handle; reopen to clear it.
func (db *DB) Degrade(cause error) { db.ds.Degrade(cause) }

// Conn opens a new SQL connection: its own transaction state, concurrent
// with other connections. A single Conn must not be used concurrently. Its
// writes fail with ErrConflict while another connection's transaction owns
// the tables (see Conn.Begin). The DB's own Exec, Query, Prepare and
// QueryScript run on one default connection.
func (db *DB) Conn() *Conn {
	return &Conn{db: db, c: db.ds.NewConn()}
}

// Prepare parses and analyzes a statement once for repeated execution with
// different '?' bindings, on any connection. Prepared statements survive in
// a shared plan cache keyed by text, so preparing the same text is cheap.
func (db *DB) Prepare(sql string) (*Stmt, error) { return db.conn.Prepare(sql) }

// Exec runs a statement on the default connection and materialises its
// outcome. See Conn.Exec.
func (db *DB) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	return db.conn.Exec(ctx, sql, args...)
}

// Query streams a SELECT on the default connection. See Conn.Query.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return db.conn.Query(ctx, sql, args...)
}

// QueryScript executes a semicolon-separated SQL script (no placeholders)
// on the default connection, returning the result of the last statement (a
// zero Result for an empty script).
func (db *DB) QueryScript(sql string) (Result, error) {
	res, err := db.ds.QueryScript(sql)
	return wrapResult(res), err
}

// --- spreadsheet surface ---

// SetCell enters user input into a cell exactly as typing into the grid:
// "=..." is a formula (including the DBSQL/DBTABLE binding formulas),
// anything else a literal. The returned wait func blocks until background
// recomputation triggered by the edit has finished.
func (db *DB) SetCell(sheetName, addr, input string) (wait func(), err error) {
	return db.ds.SetCell(sheetName, addr, input)
}

// Get returns the current value of one cell.
func (db *DB) Get(sheetName, addr string) (Value, error) { return db.ds.Get(sheetName, addr) }

// SetValues bulk-loads a dense matrix of literal values with its top-left
// corner at topLeft ("A1"). It is the fast path for imports: no per-cell
// input parsing, no edit routing to bound regions.
func (db *DB) SetValues(sheetName, topLeft string, rows [][]Value) error {
	return db.ds.SetValues(sheetName, topLeft, rows)
}

// GetRange returns the values of a range ("A1:D10") as a dense matrix.
func (db *DB) GetRange(sheetName, rng string) ([][]Value, error) {
	return db.ds.GetRange(sheetName, rng)
}

// CellCount returns the number of materialised cells of a sheet (windowed
// table bindings keep this far below the bound table's cardinality).
func (db *DB) CellCount(sheetName string) (int, error) { return db.ds.CellCount(sheetName) }

// Wait blocks until all background recomputation has finished.
func (db *DB) Wait() { db.ds.Wait() }

// AddSheet creates (or returns) a sheet with the given name.
func (db *DB) AddSheet(name string) error {
	_, err := db.ds.AddSheet(name)
	return err
}

// SheetNames lists the workbook's sheets in creation order.
func (db *DB) SheetNames() []string { return db.ds.Book().SheetNames() }

// ScrollTo moves the visible window of a sheet (fetch-on-demand panning for
// window-bound tables).
func (db *DB) ScrollTo(sheetName, topLeft string) error { return db.ds.ScrollTo(sheetName, topLeft) }

// VisibleValues returns the values of a sheet's current window.
func (db *DB) VisibleValues(sheetName string) ([][]Value, error) {
	return db.ds.VisibleValues(sheetName)
}

// ExportOptions configure ExportRange.
type ExportOptions struct {
	// PrimaryKey names the column(s) to declare as the primary key.
	PrimaryKey []string
	// KeepRegion leaves the original cells in place instead of replacing
	// them with a live table binding.
	KeepRegion bool
}

// ExportRange exports a sheet range as a new relational table: the schema is
// inferred from the header row and the data, the table is created with its
// rows as one unit — a row that fails leaves no table behind — and, unless
// KeepRegion is set, the region is replaced by a binding that keeps sheet
// and table in sync from then on.
func (db *DB) ExportRange(sheetName, rng, tableName string, opts ExportOptions) error {
	_, err := db.ds.CreateTableFromRange(sheetName, rng, tableName, core.ExportOptions{
		PrimaryKey: opts.PrimaryKey,
		KeepRegion: opts.KeepRegion,
	})
	return err
}

// ImportTable binds an existing relational table at the given anchor cell;
// the bound region stays in sync in both directions.
func (db *DB) ImportTable(sheetName, anchor, tableName string) error {
	_, err := db.ds.ImportTable(sheetName, anchor, tableName)
	return err
}

// ColumnInfo describes one column of a table.
type ColumnInfo struct {
	Name       string
	Type       string // "NUMERIC", "TEXT", "BOOLEAN" or "ANY"
	PrimaryKey bool
	NotNull    bool
}

// TableInfo describes one relational table.
type TableInfo struct {
	Name    string
	Columns []ColumnInfo
}

// Tables lists the relational tables of the workbook.
func (db *DB) Tables() []TableInfo {
	var out []TableInfo
	for _, t := range db.ds.DB().Tables() {
		out = append(out, tableInfo(t))
	}
	return out
}

// Table describes one table, or ErrTableNotFound.
func (db *DB) Table(name string) (TableInfo, error) {
	t, err := db.ds.DB().Table(name)
	if err != nil {
		return TableInfo{}, err
	}
	return tableInfo(t), nil
}

// RowCount returns the number of live rows of a table.
func (db *DB) RowCount(name string) (int, error) { return db.ds.DB().RowCount(name) }

func tableInfo(t *catalog.Table) TableInfo {
	info := TableInfo{Name: t.Name}
	for _, c := range t.Columns {
		info.Columns = append(info.Columns, ColumnInfo{
			Name:       c.Name,
			Type:       c.Type.String(),
			PrimaryKey: c.PrimaryKey,
			NotNull:    c.NotNull,
		})
	}
	return info
}

// Listen subscribes to data-change notifications for bound-region refresh or
// cache invalidation. fn runs once per changed table after each statement,
// COMMIT or ROLLBACK that changed it, and never for a statement that failed
// or whose transaction is still open. It runs synchronously on the mutating
// goroutine; keep it fast. The returned cancel removes the subscription.
func (db *DB) Listen(fn func(table string)) (cancel func()) {
	return db.ds.DB().Listen(func(changes []sqlexec.ChangeEvent) {
		seen := map[string]bool{}
		for _, ev := range changes {
			if t := strings.ToLower(ev.Table); !seen[t] {
				seen[t] = true
				fn(ev.Table)
			}
		}
	})
}

// PlanCacheStats reports prepared-plan cache counters (size, hits, misses).
type PlanCacheStats = sqlexec.PlanCacheStats

// PlanCache returns the shared prepared-plan cache counters.
func (db *DB) PlanCache() PlanCacheStats { return db.ds.DB().PlanCacheStats() }

// String implements fmt.Stringer for diagnostics.
func (db *DB) String() string {
	return fmt.Sprintf("dataspread.DB(%d tables)", len(db.ds.DB().Tables()))
}
