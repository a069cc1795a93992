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
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/index/btree"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Config configures a Database.
type Config struct {
	// GroupSize is the attribute-group width of new tables (default
	// tablestore.DefaultGroupSize): 1 stores every column apart, a value at
	// least the table's width stores whole tuples together.
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

// ChangeKind classifies a change.
type ChangeKind int

// Change kinds delivered to listeners.
const (
	ChangeInsert ChangeKind = iota
	ChangeUpdate
	ChangeDelete
	ChangeSchema
	ChangeDropTable
)

// ChangeEvent is one change of a table. Listeners (the interface manager)
// receive them in change sets, so bound spreadsheet regions can be refreshed
// (paper Feature 3: two-way sync).
type ChangeEvent struct {
	Table string
	Kind  ChangeKind
	RowID tablestore.RowID
}

// listener is one registered change listener; the id lets Listen hand back
// a cancel func that removes exactly this registration.
type listener struct {
	id int64
	fn func([]ChangeEvent)
}

// Database is the embedded relational engine: catalog, per-table storage,
// primary-key indexes and change notification. It is safe for
// concurrent use; writes are serialised by an internal mutex.
type Database struct {
	mu           sync.RWMutex // dslint:lock(engine)
	cat          *catalog.Catalog
	stores       map[string]tablestore.Store
	pkIndex      map[string]*btree.Tree
	pageStore    pager.Backend
	pool         *pager.BufferPool
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

	hint atomic.Pointer[PlanHint] // set by SetPlanHint; nil plans freely

	// owner is the session whose transaction owns the tables (undo.go).
	owner atomic.Pointer[Session]

	// pagesRead / pagesSkipped count the physical pages pruned scans chose to
	// read and proved skippable, across all queries since the last reset.
	pagesRead    atomic.Int64
	pagesSkipped atomic.Int64
}

// NewDatabase creates an empty database.
func NewDatabase(cfg Config) *Database {
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

// PlanHint forces the reference plans the golden tests compare each
// optimised plan against on identical data; the zero value plans freely.
type PlanHint struct {
	Workers  int  // replaces Config.Workers when non-zero; 1 runs serially
	FullScan bool // disables index access paths
	NoSkip   bool // disables zone-map page skipping
}

// SetPlanHint installs h for subsequent queries, replacing the last hint.
func (db *Database) SetPlanHint(h PlanHint) { db.hint.Store(&h) }

func (db *Database) planHint() PlanHint {
	if h := db.hint.Load(); h != nil {
		return *h
	}
	return PlanHint{}
}

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

// PagerStats returns block-level I/O statistics for the whole database.
func (db *Database) PagerStats() pager.Stats { return db.pageStore.Stats() }

// EpochStats reports the snapshot-read state of the buffer pool: how many
// reader epochs are pinned and how many superseded page versions are
// retained for them. Both are zero whenever no snapshot reader is active.
func (db *Database) EpochStats() (pinned, retained int) { return db.pool.EpochStats() }

// ResetPagerStats zeroes the block-level counters.
func (db *Database) ResetPagerStats() { db.pageStore.ResetStats() }

// Listen registers a change listener. Listeners run in registration order on
// the writer's goroutine, outside the engine lock, with one change set after
// each autocommit statement, COMMIT, ROLLBACK (what its unwind changed) or
// exported mutator call, and never for failed or uncommitted work. The
// returned cancel func removes the registration; long-lived embedders must
// call it when done listening or the database retains the closure forever.
// Cancelling twice is harmless.
func (db *Database) Listen(fn func([]ChangeEvent)) (cancel func()) {
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

// publish hands the log's changes to every listener as one set (undo.go).
// dslint:locks(engine)
func (db *Database) publish(log undoLog) {
	if len(log) == 0 {
		return
	}
	changes := make([]ChangeEvent, len(log))
	for i, e := range log {
		changes[i] = e.ChangeEvent
	}
	db.mu.RLock()
	ls := slices.Clone(db.listeners)
	db.mu.RUnlock()
	for _, l := range ls {
		l.fn(changes)
	}
}

func tkey(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// newStore builds a table store with the configured group size.
func (db *Database) newStore(columns int) tablestore.Store {
	return tablestore.NewHybridStore(db.pool, columns, tablestore.WithGroupSize(db.cfg.GroupSize))
}

// autocommit runs an exported mutator as a statement of one change, which it
// publishes when it returns. It fails with dberr.ErrConflict while a
// transaction owns the tables.
func (db *Database) autocommit(change func(*undoLog) error) error {
	if err := db.Busy(); err != nil {
		return err
	}
	var log undoLog
	err := change(&log)
	db.publish(log)
	return err
}

// CreateTable registers a table and its storage.
func (db *Database) CreateTable(name string, cols []catalog.Column) error {
	return db.autocommit(func(u *undoLog) error { return db.createTable(name, cols, u) })
}

func (db *Database) createTable(name string, cols []catalog.Column, undo *undoLog) error {
	if _, err := db.cat.Create(name, cols); err != nil {
		return err
	}
	db.mu.Lock()
	db.stores[tkey(name)] = db.newStore(len(cols))
	db.pkIndex[tkey(name)] = btree.New()
	db.mu.Unlock()
	db.invalidatePlans()
	undo.push(ChangeEvent{Table: name, Kind: ChangeSchema}, func() error { return db.dropTable(name, nil) })
	return nil
}

// dropTable removes a table, its storage and indexes.
func (db *Database) dropTable(name string, undo *undoLog) error {
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
	undo.push(ChangeEvent{Table: name, Kind: ChangeDropTable}, nil)
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
func (db *Database) Insert(table string, row []sheet.Value) (id tablestore.RowID, err error) {
	err = db.autocommit(func(u *undoLog) error { id, err = db.insert(table, row, u); return err })
	return id, err
}

func (db *Database) insert(table string, row []sheet.Value, undo *undoLog) (tablestore.RowID, error) {
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
	defer db.mu.Unlock()
	if err := db.checkKeysLocked(tbl, coerced); err != nil {
		return 0, err
	}
	id, err := s.Insert(coerced)
	if err != nil {
		return 0, err
	}
	if err := db.addKeysLocked(tbl, coerced, id); err != nil {
		_ = s.Delete(id) // best effort: the row was just inserted
		return 0, err
	}
	db.dataVers[tkey(table)]++
	undo.push(ChangeEvent{Table: table, Kind: ChangeInsert, RowID: id}, func() error { return db.delete(table, id, nil) })
	return id, nil
}

// checkKeysLocked refuses a row whose primary key or unique secondary key
// another row holds.
// dslint:requires(engine)
func (db *Database) checkKeysLocked(tbl *catalog.Table, row []sheet.Value) error {
	if key := pkKey(tbl, row); key != nil {
		_, dup, err := db.pkIndex[tkey(tbl.Name)].Get(key)
		if err == nil && dup {
			err = fmt.Errorf("sqlexec: duplicate primary key in table %q: %w", tbl.Name, dberr.ErrUniqueViolation)
		}
		if err != nil {
			return err
		}
	}
	return db.secCheckInsertLocked(tbl.Name, row)
}

// addKeysLocked adds the index entries of the stored row id, whose RowID
// completes the secondary keys. When a leaf fails to load it takes back out
// the entries it added (none under the failing leaf).
// dslint:requires(engine)
func (db *Database) addKeysLocked(tbl *catalog.Table, row []sheet.Value, id tablestore.RowID) error {
	idx, key := db.pkIndex[tkey(tbl.Name)], pkKey(tbl, row)
	var err error
	if key != nil {
		err = idx.Set(key, uint64(id))
	}
	if err == nil {
		err = db.secInsertLocked(tbl.Name, row, id)
	}
	if err != nil {
		if key != nil {
			_, _ = idx.Delete(key) // best effort: the leaf loaded for checkKeysLocked
		}
		_ = db.secDeleteLocked(tbl.Name, row, id) // best effort: skips the leaf that failed
	}
	return err
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
	return db.autocommit(func(u *undoLog) error { return db.update(table, id, row, u) })
}

func (db *Database) update(table string, id tablestore.RowID, row []sheet.Value, undo *undoLog) error {
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
	defer db.mu.Unlock()
	idx := db.pkIndex[tkey(table)]
	oldKey, newKey := pkKey(tbl, old), pkKey(tbl, coerced)
	if newKey != nil && string(oldKey) != string(newKey) {
		existing, dup, err := idx.Get(newKey)
		if err == nil && dup && existing != uint64(id) {
			err = fmt.Errorf("sqlexec: duplicate primary key in table %q: %w", table, dberr.ErrUniqueViolation)
		}
		if err != nil {
			return err
		}
	}
	if err := db.secCheckUpdateLocked(table, old, coerced, id); err != nil {
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
		return err
	}
	db.dataVers[tkey(table)]++
	// Store.Get returned old as a copy, so the undo step can keep it.
	undo.push(ChangeEvent{Table: table, Kind: ChangeUpdate, RowID: id}, func() error { return db.update(table, id, old, nil) })
	return nil
}

// UpdateColumn updates a single attribute of a tuple.
func (db *Database) UpdateColumn(table string, id tablestore.RowID, col int, v sheet.Value) error {
	return db.autocommit(func(u *undoLog) error { return db.updateColumn(table, id, col, v, u) })
}

// updateColumn's in-place write pushes its change without an undo step: no
// statement runs it, so no unwind reaches it.
func (db *Database) updateColumn(table string, id tablestore.RowID, col int, v sheet.Value, undo *undoLog) error {
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
	// Primary-key and secondary-indexed columns must go through update so
	// the indexes stay valid.
	db.mu.RLock()
	indexed := slices.Contains(tbl.PrimaryKey(), col) || db.secColumnIndexedLocked(table, col)
	db.mu.RUnlock()
	if indexed {
		row, err := s.Get(id)
		if err != nil {
			return err
		}
		row[col] = cv
		return db.update(table, id, row, undo)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := s.UpdateColumn(id, col, cv); err != nil {
		return err
	}
	db.dataVers[tkey(table)]++
	undo.push(ChangeEvent{Table: table, Kind: ChangeUpdate, RowID: id}, nil)
	return nil
}

// Delete removes a tuple and its index entry.
func (db *Database) Delete(table string, id tablestore.RowID) error {
	return db.autocommit(func(u *undoLog) error { return db.delete(table, id, u) })
}

func (db *Database) delete(table string, id tablestore.RowID, undo *undoLog) error {
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
	defer db.mu.Unlock()
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
		return err
	}
	db.dataVers[tkey(table)]++
	db.deletes[tkey(table)]++
	undo.push(ChangeEvent{Table: table, Kind: ChangeDelete, RowID: id}, func() error { return db.restore(tbl, s, id) })
	return nil
}

// restore undoes a DELETE in place: the row comes back at its own RowID, so
// scan order stays what replaying the log rebuilds. The delete counter
// advances as for a delete: a restore rewrites no page either, and a memo
// that saw the row gone must see it come back (sketch.go). The transaction
// that deleted the row owns the table until the restore, so its table and
// its keys are as the delete left them.
func (db *Database) restore(tbl *catalog.Table, s tablestore.Store, id tablestore.RowID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := s.Restore(id); err != nil {
		return err
	}
	row, err := s.Get(id)
	if err == nil {
		err = db.addKeysLocked(tbl, row, id)
	}
	if err != nil {
		_ = s.Delete(id) // best effort: the tombstone was cleared just above
		return err
	}
	db.dataVers[tkey(tbl.Name)]++
	db.deletes[tkey(tbl.Name)]++
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

// addColumn evolves the schema: catalog first, then the storage backfill.
func (db *Database) addColumn(table string, col catalog.Column, defaultValue sheet.Value, undo *undoLog) error {
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
	db.invalidatePlans()
	undo.push(ChangeEvent{Table: table, Kind: ChangeSchema}, func() error { return db.dropColumn(table, col.Name, nil) })
	return nil
}

// dropColumn evolves the schema, removing the column from catalog and
// storage.
func (db *Database) dropColumn(table, column string, undo *undoLog) error {
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
	undo.push(ChangeEvent{Table: table, Kind: ChangeSchema}, nil)
	return nil
}

// renameColumn renames a column (catalog only; storage is positional).
func (db *Database) renameColumn(table, oldName, newName string, undo *undoLog) error {
	if err := db.cat.RenameColumn(table, oldName, newName); err != nil {
		return err
	}
	db.mu.Lock()
	db.secOnRenameColumnLocked(table, oldName, newName)
	db.mu.Unlock()
	db.invalidatePlans()
	undo.push(ChangeEvent{Table: table, Kind: ChangeSchema}, func() error { return db.renameColumn(table, newName, oldName, nil) })
	return nil
}
