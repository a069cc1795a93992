// Package sqlexec implements the query processor of DataSpread's embedded
// relational engine: a materialising executor for the SQL dialect of
// internal/sqlparser over the storage managers of internal/storage/tablestore,
// extended with the paper's positional addressing constructs (RANGEVALUE,
// RANGETABLE) resolved against the spreadsheet through a SheetAccessor.
//
// dslint:errdomain
package sqlexec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/index/btree"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
	"github.com/dataspread/dataspread/internal/txn"
)

// Layout selects the physical layout used for newly created tables.
type Layout string

// Available layouts.
const (
	LayoutHybrid Layout = "hybrid"
	LayoutRow    Layout = "row"
	LayoutColumn Layout = "column"
)

// Config configures a Database.
type Config struct {
	// Layout is the physical layout for new tables (default hybrid).
	Layout Layout
	// GroupSize is the attribute-group width for hybrid tables.
	GroupSize int
	// BufferPoolPages is the buffer pool capacity in pages (default 4096;
	// 0 disables caching, which benchmarks use to expose block counts).
	BufferPoolPages *int
	// Backend is the page device table storage sits on (default: a fresh
	// in-memory pager.Store). Pass a pager.FileStore to run the storage
	// managers and their block-touch experiments against real disk I/O.
	Backend pager.Backend
	// Workers bounds the worker pool used for morsel-driven parallel scans,
	// aggregation and joins (0 = GOMAXPROCS). 1 disables parallel execution.
	Workers int
}

// ChangeKind classifies a data-change notification.
type ChangeKind int

// Change kinds delivered to listeners.
const (
	ChangeInsert ChangeKind = iota
	ChangeUpdate
	ChangeDelete
	ChangeSchema
	ChangeDropTable
)

// ChangeEvent notifies listeners (the interface manager) that a table
// changed, so bound spreadsheet regions can be refreshed (paper Feature 3:
// two-way sync).
type ChangeEvent struct {
	Table string
	Kind  ChangeKind
	RowID tablestore.RowID
}

// listener is one registered change listener; the id lets Listen hand back
// a cancel func that removes exactly this registration.
type listener struct {
	id int64
	fn func(ChangeEvent)
}

// Database is the embedded relational engine: catalog, per-table storage,
// primary-key indexes, transactions and change notification. It is safe for
// concurrent use; writes are serialised by an internal mutex.
type Database struct {
	mu           sync.RWMutex // dslint:lock(engine)
	cat          *catalog.Catalog
	stores       map[string]tablestore.Store
	pkIndex      map[string]*btree.Tree
	pageStore    pager.Backend
	pool         *pager.BufferPool
	txns         *txn.Manager
	cfg          Config
	listeners    []listener
	nextListener int64

	// Secondary indexes (indexes.go), maintained under mu together with the
	// base tables, and per-table data version counters bumped on every
	// tuple change (result-level memoization of DBSQL bindings compares
	// them to skip re-execution). deletes counts each table's row deletes,
	// which tombstone layouts apply without rewriting a page (sketch.go).
	secIndexes  map[string][]*secIndex
	indexByName map[string]*secIndex
	dataVers    map[string]uint64
	deletes     map[string]uint64

	// Prepared-plan cache (plan.go). schemaEpoch advances on every schema
	// definition change — including index DDL, so cached plans re-plan
	// their access paths — lazily invalidating cached statements.
	plans       planCache
	schemaEpoch atomic.Uint64

	// forceFullScan disables index access paths (golden tests and the
	// benchmark baseline compare against forced full scans).
	forceFullScan atomic.Bool

	// workersOverride, when non-zero, replaces cfg.Workers at plan time so
	// benchmarks can sweep worker counts over one loaded dataset and golden
	// tests can hold parallel plans to the serial executor (1).
	workersOverride atomic.Int32

	// forceNoSkip disables zone-map page skipping (golden tests and the
	// benchmark baseline compare skipped scans against forced full reads).
	forceNoSkip atomic.Bool

	// pagesRead / pagesSkipped count the physical pages pruned scans chose to
	// read and proved skippable, across all queries since the last reset.
	pagesRead    atomic.Int64
	pagesSkipped atomic.Int64
}

// NewDatabase creates an empty database.
func NewDatabase(cfg Config) *Database {
	if cfg.Layout == "" {
		cfg.Layout = LayoutHybrid
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = tablestore.DefaultGroupSize
	}
	poolPages := 4096
	if cfg.BufferPoolPages != nil {
		poolPages = *cfg.BufferPoolPages
	}
	var ps pager.Backend = cfg.Backend
	if ps == nil {
		ps = pager.NewStore()
	}
	return &Database{
		cat:         catalog.New(),
		stores:      make(map[string]tablestore.Store),
		pkIndex:     make(map[string]*btree.Tree),
		secIndexes:  make(map[string][]*secIndex),
		indexByName: make(map[string]*secIndex),
		dataVers:    make(map[string]uint64),
		deletes:     make(map[string]uint64),
		pageStore:   ps,
		pool:        pager.NewBufferPool(ps, poolPages),
		txns:        txn.NewManager(),
		cfg:         cfg,
	}
}

// SchemaEpoch returns the schema definition epoch: it advances on every
// CREATE/ALTER/DROP of tables, columns and indexes.
func (db *Database) SchemaEpoch() uint64 { return db.schemaEpoch.Load() }

// TableDataVersion returns a counter that advances on every tuple change of
// the table (0 for an unknown or untouched table). Together with
// SchemaEpoch it lets callers prove a query's inputs are unchanged.
func (db *Database) TableDataVersion(name string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dataVers[tkey(name)]
}

// SetForceFullScan disables (true) or re-enables (false) index access
// paths: with the flag set every scan is a filtered full scan. It is a test
// switch: the access-path golden tests use it as the reference answer for
// the planner-chosen index path on identical data.
func (db *Database) SetForceFullScan(force bool) { db.forceFullScan.Store(force) }

// SetWorkers overrides the configured worker-pool width for subsequent
// queries (0 restores Config.Workers). With 1, every scan, aggregation and
// join runs on the calling goroutine: the parallel golden tests use it as
// the serial reference and sweep wider counts over one loaded dataset.
func (db *Database) SetWorkers(n int) { db.workersOverride.Store(int32(n)) }

// SetForceNoSkip disables (true) or re-enables (false) zone-map page
// skipping: with the flag set every scan reads every page, ignoring the
// per-page summaries. It is a test switch: the zone-map golden tests use it
// as the reference answer for pruned scans on identical data.
func (db *Database) SetForceNoSkip(force bool) { db.forceNoSkip.Store(force) }

// ScanStats reports the zone-map skipping counters: physical pages pruned
// scans read and pages they proved skippable, cumulative since the last
// ResetScanStats. Scans that never consulted zone maps (no sargable bounds,
// or skipping disabled) count toward neither.
func (db *Database) ScanStats() (pagesRead, pagesSkipped int64) {
	return db.pagesRead.Load(), db.pagesSkipped.Load()
}

// ResetScanStats zeroes the zone-map skipping counters.
func (db *Database) ResetScanStats() {
	db.pagesRead.Store(0)
	db.pagesSkipped.Store(0)
}

// Catalog returns the schema catalog.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// TxnManager returns the transaction manager.
func (db *Database) TxnManager() *txn.Manager { return db.txns }

// PagerStats returns block-level I/O statistics for the whole database.
func (db *Database) PagerStats() pager.Stats { return db.pageStore.Stats() }

// EpochStats reports the snapshot-read state of the buffer pool: how many
// reader epochs are pinned and how many superseded page versions are
// retained for them. Both are zero whenever no snapshot reader is active.
func (db *Database) EpochStats() (pinned, retained int) { return db.pool.EpochStats() }

// ResetPagerStats zeroes the block-level counters.
func (db *Database) ResetPagerStats() { db.pageStore.ResetStats() }

// Listen registers a change listener. Listeners are called synchronously
// after each successful data or schema change, in registration order. The
// returned cancel func removes the registration; long-lived embedders must
// call it when done listening or the database retains the closure forever.
// Cancelling twice is harmless.
func (db *Database) Listen(fn func(ChangeEvent)) (cancel func()) {
	db.mu.Lock()
	db.nextListener++
	id := db.nextListener
	db.listeners = append(db.listeners, listener{id: id, fn: fn})
	db.mu.Unlock()
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		for i, l := range db.listeners {
			if l.id == id {
				db.listeners = append(db.listeners[:i], db.listeners[i+1:]...)
				return
			}
		}
	}
}

func (db *Database) notify(ev ChangeEvent) {
	db.mu.RLock()
	ls := make([]listener, len(db.listeners))
	copy(ls, db.listeners)
	db.mu.RUnlock()
	for _, l := range ls {
		l.fn(ev)
	}
}

func tkey(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// newStore builds a table store in the configured layout.
func (db *Database) newStore(columns int) tablestore.Store {
	switch db.cfg.Layout {
	case LayoutRow:
		return tablestore.NewRowStore(db.pool, columns)
	case LayoutColumn:
		return tablestore.NewColStore(db.pool, columns)
	default:
		return tablestore.NewHybridStore(db.pool, columns, tablestore.WithGroupSize(db.cfg.GroupSize))
	}
}

// CreateTable registers a table and its storage.
func (db *Database) CreateTable(name string, cols []catalog.Column) error {
	if _, err := db.cat.Create(name, cols); err != nil {
		return err
	}
	db.mu.Lock()
	db.stores[tkey(name)] = db.newStore(len(cols))
	db.pkIndex[tkey(name)] = btree.New()
	db.mu.Unlock()
	db.invalidatePlans()
	db.notify(ChangeEvent{Table: name, Kind: ChangeSchema})
	return nil
}

// DropTable removes a table, its storage and indexes.
func (db *Database) DropTable(name string) error {
	if err := db.cat.Drop(name); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.stores, tkey(name))
	delete(db.pkIndex, tkey(name))
	delete(db.dataVers, tkey(name))
	delete(db.deletes, tkey(name))
	db.secOnDropTableLocked(name)
	db.mu.Unlock()
	db.invalidatePlans()
	db.notify(ChangeEvent{Table: name, Kind: ChangeDropTable})
	return nil
}

// Table returns the table definition.
func (db *Database) Table(name string) (*catalog.Table, error) {
	return db.cat.MustGet(name)
}

// Tables lists all table definitions.
func (db *Database) Tables() []*catalog.Table { return db.cat.List() }

func (db *Database) store(name string) (tablestore.Store, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.stores[tkey(name)]
	if !ok {
		return nil, catalog.ErrNoTable{Name: name}
	}
	return s, nil
}

// RowCount returns the number of live tuples in a table.
func (db *Database) RowCount(name string) (int, error) {
	s, err := db.store(name)
	if err != nil {
		return 0, err
	}
	return s.RowCount(), nil
}

// coerceRow validates a tuple against the table schema, coercing values to
// column types where possible and rejecting NOT NULL violations.
func coerceRow(tbl *catalog.Table, row []sheet.Value) ([]sheet.Value, error) {
	if len(row) != len(tbl.Columns) {
		return nil, fmt.Errorf("sqlexec: table %q expects %d values, got %d: %w", tbl.Name, len(tbl.Columns), len(row), dberr.ErrParamCount)
	}
	out := make([]sheet.Value, len(row))
	for i, col := range tbl.Columns {
		v := row[i]
		if v.IsEmpty() {
			if col.NotNull {
				return nil, fmt.Errorf("sqlexec: column %q of table %q is NOT NULL: %w", col.Name, tbl.Name, dberr.ErrNotNullViolation)
			}
			if !col.Default.IsEmpty() {
				v = col.Default
			}
		}
		cv, ok := col.Type.Coerce(v)
		if !ok {
			return nil, fmt.Errorf("sqlexec: value %q is not valid for column %q (%s): %w", v.String(), col.Name, col.Type, dberr.ErrTypeMismatch)
		}
		out[i] = cv
	}
	return out, nil
}

// pkKey builds the primary-key index key for a tuple, or nil when the table
// has no declared key.
func pkKey(tbl *catalog.Table, row []sheet.Value) []byte {
	pk := tbl.PrimaryKey()
	if len(pk) == 0 {
		return nil
	}
	parts := make([][]byte, 0, len(pk))
	for _, i := range pk {
		parts = append(parts, encodeKeyValue(row[i]))
	}
	return btree.Composite(parts...)
}

// encodeKeyValue encodes one value for use inside an index key. Negative
// zero is normalised to zero so byte equality of keys matches numeric
// equality of the values they encode.
func encodeKeyValue(v sheet.Value) []byte {
	switch v.Kind {
	case sheet.KindNumber:
		f := v.Num
		if f == 0 {
			f = 0
		}
		return btree.Composite([]byte{1}, btree.EncodeFloat64(f))
	case sheet.KindString:
		return btree.Composite([]byte{2}, btree.EncodeString(v.Str))
	case sheet.KindBool:
		if v.Bool {
			return []byte{3, 1}
		}
		return []byte{3, 0}
	default:
		return []byte{0}
	}
}

// Insert validates and appends a tuple, maintaining the primary-key index,
// and returns the new RowID. A duplicate primary key is rejected.
func (db *Database) Insert(table string, row []sheet.Value) (tablestore.RowID, error) {
	return db.insert(table, row, nil)
}

func (db *Database) insert(table string, row []sheet.Value, tx *txn.Txn) (tablestore.RowID, error) {
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return 0, err
	}
	s, err := db.store(table)
	if err != nil {
		return 0, err
	}
	coerced, err := coerceRow(tbl, row)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	idx := db.pkIndex[tkey(table)]
	key := pkKey(tbl, coerced)
	if key != nil {
		_, dup, err := idx.Get(key)
		if err == nil && dup {
			err = fmt.Errorf("sqlexec: duplicate primary key in table %q: %w", table, dberr.ErrUniqueViolation)
		}
		if err != nil {
			db.mu.Unlock()
			return 0, err
		}
	}
	if err := db.secCheckInsertLocked(table, coerced); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	id, err := s.Insert(coerced)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	// The RowID completes the secondary keys, so their leaves can only be
	// reached now. One that fails to load takes the row back out: its
	// entries (none under the failing leaf) and the tuple.
	if key != nil {
		err = idx.Set(key, uint64(id))
	}
	if err == nil {
		err = db.secInsertLocked(table, coerced, id)
	}
	if err != nil {
		if key != nil {
			_, _ = idx.Delete(key) // best effort: the leaf loaded for the duplicate check above
		}
		_ = db.secDeleteLocked(table, coerced, id) // best effort: skips the leaf that failed
		_ = s.Delete(id)                           // best effort: the row was just inserted
		db.mu.Unlock()
		return 0, err
	}
	db.dataVers[tkey(table)]++
	db.mu.Unlock()
	if tx != nil {
		_ = tx.Log(txn.Op{Kind: txn.OpInsert, Table: table, Detail: fmt.Sprintf("row %d", id)}, func() error {
			return db.Delete(table, id)
		})
	}
	db.notify(ChangeEvent{Table: table, Kind: ChangeInsert, RowID: id})
	return id, nil
}

// Get returns a tuple by RowID.
func (db *Database) Get(table string, id tablestore.RowID) ([]sheet.Value, error) {
	s, err := db.store(table)
	if err != nil {
		return nil, err
	}
	return s.Get(id)
}

// Update replaces a tuple, keeping the primary-key index in sync.
func (db *Database) Update(table string, id tablestore.RowID, row []sheet.Value) error {
	return db.update(table, id, row, nil)
}

func (db *Database) update(table string, id tablestore.RowID, row []sheet.Value, tx *txn.Txn) error {
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return err
	}
	s, err := db.store(table)
	if err != nil {
		return err
	}
	coerced, err := coerceRow(tbl, row)
	if err != nil {
		return err
	}
	old, err := s.Get(id)
	if err != nil {
		return err
	}
	db.mu.Lock()
	idx := db.pkIndex[tkey(table)]
	oldKey, newKey := pkKey(tbl, old), pkKey(tbl, coerced)
	if newKey != nil && string(oldKey) != string(newKey) {
		existing, dup, err := idx.Get(newKey)
		if err == nil && dup && existing != uint64(id) {
			err = fmt.Errorf("sqlexec: duplicate primary key in table %q: %w", table, dberr.ErrUniqueViolation)
		}
		if err != nil {
			db.mu.Unlock()
			return err
		}
	}
	if err := db.secCheckUpdateLocked(table, old, coerced, id); err != nil {
		db.mu.Unlock()
		return err
	}
	// Every leaf the index maintenance below writes is loaded before the
	// tuple changes, so that maintenance cannot fail half-way.
	err = db.loadEntriesLocked(table, idx, oldKey, old, id)
	if err == nil {
		err = db.loadEntriesLocked(table, idx, newKey, coerced, id)
	}
	if err == nil {
		err = s.Update(id, coerced)
	}
	if err == nil && oldKey != nil && string(oldKey) != string(newKey) {
		_, err = idx.Delete(oldKey)
	}
	if err == nil && newKey != nil {
		err = idx.Set(newKey, uint64(id))
	}
	if err == nil {
		err = db.secUpdateLocked(table, old, coerced, id)
	}
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.dataVers[tkey(table)]++
	db.mu.Unlock()
	if tx != nil {
		oldCopy := append([]sheet.Value(nil), old...)
		_ = tx.Log(txn.Op{Kind: txn.OpUpdate, Table: table, Detail: fmt.Sprintf("row %d", id)}, func() error {
			return db.Update(table, id, oldCopy)
		})
	}
	db.notify(ChangeEvent{Table: table, Kind: ChangeUpdate, RowID: id})
	return nil
}

// UpdateColumn updates a single attribute of a tuple.
func (db *Database) UpdateColumn(table string, id tablestore.RowID, col int, v sheet.Value) error {
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return err
	}
	if col < 0 || col >= len(tbl.Columns) {
		return fmt.Errorf("sqlexec: column index %d out of range for table %q: %w", col, table, dberr.ErrColumnNotFound)
	}
	cv, ok := tbl.Columns[col].Type.Coerce(v)
	if !ok {
		return fmt.Errorf("sqlexec: value %q is not valid for column %q: %w", v.String(), tbl.Columns[col].Name, dberr.ErrTypeMismatch)
	}
	s, err := db.store(table)
	if err != nil {
		return err
	}
	// Primary-key and secondary-indexed columns must go through Update so
	// the indexes stay valid.
	indexed := false
	for _, pkIdx := range tbl.PrimaryKey() {
		if pkIdx == col {
			indexed = true
		}
	}
	if !indexed {
		db.mu.RLock()
		indexed = db.secColumnIndexedLocked(table, col)
		db.mu.RUnlock()
	}
	if indexed {
		row, err := s.Get(id)
		if err != nil {
			return err
		}
		row[col] = cv
		return db.Update(table, id, row)
	}
	db.mu.Lock()
	err = s.UpdateColumn(id, col, cv)
	if err == nil {
		db.dataVers[tkey(table)]++
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	db.notify(ChangeEvent{Table: table, Kind: ChangeUpdate, RowID: id})
	return nil
}

// Delete removes a tuple and its index entry.
func (db *Database) Delete(table string, id tablestore.RowID) error {
	return db.delete(table, id, nil)
}

func (db *Database) delete(table string, id tablestore.RowID, tx *txn.Txn) error {
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return err
	}
	s, err := db.store(table)
	if err != nil {
		return err
	}
	old, err := s.Get(id)
	if err != nil {
		return err
	}
	db.mu.Lock()
	idx, key := db.pkIndex[tkey(table)], pkKey(tbl, old)
	// As in update: load the leaves first, then change the tuple.
	err = db.loadEntriesLocked(table, idx, key, old, id)
	if err == nil {
		err = s.Delete(id)
	}
	if err == nil && key != nil {
		_, err = idx.Delete(key)
	}
	if err == nil {
		err = db.secDeleteLocked(table, old, id)
	}
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.dataVers[tkey(table)]++
	db.deletes[tkey(table)]++
	db.mu.Unlock()
	if tx != nil {
		oldCopy := append([]sheet.Value(nil), old...)
		_ = tx.Log(txn.Op{Kind: txn.OpDelete, Table: table, Detail: fmt.Sprintf("row %d", id)}, func() error {
			_, err := db.Insert(table, oldCopy)
			return err
		})
	}
	db.notify(ChangeEvent{Table: table, Kind: ChangeDelete, RowID: id})
	return nil
}

// Scan iterates all live tuples of a table in RowID order.
func (db *Database) Scan(table string, fn func(id tablestore.RowID, row []sheet.Value) bool) error {
	s, err := db.store(table)
	if err != nil {
		return err
	}
	return s.Scan(fn)
}

// FindByKey looks up a tuple by its full primary key value(s).
func (db *Database) FindByKey(table string, key []sheet.Value) (tablestore.RowID, bool, error) {
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return 0, false, err
	}
	pk := tbl.PrimaryKey()
	if len(pk) == 0 {
		return 0, false, fmt.Errorf("sqlexec: table %q has no primary key: %w", table, dberr.ErrIndexNotFound)
	}
	if len(key) != len(pk) {
		return 0, false, fmt.Errorf("sqlexec: table %q primary key has %d columns, got %d values: %w", table, len(pk), len(key), dberr.ErrParamCount)
	}
	parts := make([][]byte, len(key))
	for i, v := range key {
		parts[i] = encodeKeyValue(v)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok, err := db.pkIndex[tkey(table)].Get(btree.Composite(parts...))
	return tablestore.RowID(id), ok, err
}

// AddColumn evolves the schema: catalog first, then the storage backfill.
func (db *Database) AddColumn(table string, col catalog.Column, defaultValue sheet.Value) error {
	return db.addColumn(table, col, defaultValue, nil)
}

func (db *Database) addColumn(table string, col catalog.Column, defaultValue sheet.Value, tx *txn.Txn) error {
	s, err := db.store(table)
	if err != nil {
		return err
	}
	if err := db.cat.AddColumn(table, col); err != nil {
		return err
	}
	db.mu.Lock()
	err = s.AddColumn(defaultValue)
	db.mu.Unlock()
	if err != nil {
		// Roll the catalog back so schema and storage stay consistent.
		_, _ = db.cat.DropColumn(table, col.Name)
		return err
	}
	if tx != nil {
		_ = tx.Log(txn.Op{Kind: txn.OpAddColumn, Table: table, Detail: col.Name}, func() error {
			return db.DropColumn(table, col.Name)
		})
	}
	db.invalidatePlans()
	db.notify(ChangeEvent{Table: table, Kind: ChangeSchema})
	return nil
}

// DropColumn evolves the schema, removing the column from catalog and
// storage.
func (db *Database) DropColumn(table, column string) error {
	s, err := db.store(table)
	if err != nil {
		return err
	}
	idx, err := db.cat.DropColumn(table, column)
	if err != nil {
		return err
	}
	db.mu.Lock()
	err = s.DropColumn(idx)
	if err == nil {
		db.secOnDropColumnLocked(table, idx)
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	db.invalidatePlans()
	db.notify(ChangeEvent{Table: table, Kind: ChangeSchema})
	return nil
}

// RenameColumn renames a column (catalog only; storage is positional).
func (db *Database) RenameColumn(table, oldName, newName string) error {
	if err := db.cat.RenameColumn(table, oldName, newName); err != nil {
		return err
	}
	db.mu.Lock()
	db.secOnRenameColumnLocked(table, oldName, newName)
	db.mu.Unlock()
	db.invalidatePlans()
	db.notify(ChangeEvent{Table: table, Kind: ChangeSchema})
	return nil
}
