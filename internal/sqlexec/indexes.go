package sqlexec

import (
	"fmt"
	"slices"
	"strings"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/index/btree"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Secondary indexes. A secondary index is a B+-tree over the order-preserving
// encoding of one or more columns; because values need not be unique, the
// RowID is appended to every key, so an equality probe becomes a short range
// scan over the value's key prefix. The database maintains every index of a
// table inside the same critical section as the base-table mutation, so a
// reader holding db.mu (or arriving after it is released) always observes
// table and indexes in agreement — including across an unwind (undo.go),
// whose steps run through the same insert/update/delete/restore paths.

// IndexDef describes a secondary index for catalog listings and EXPLAIN.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// secIndex is a live secondary index: its definition, the resolved column
// positions (kept in sync with schema evolution), and the tree itself.
type secIndex struct {
	def  IndexDef
	cols []int
	tree *btree.Tree
}

// rowKeyPrefix encodes the indexed column values of a row.
func (si *secIndex) rowKeyPrefix(row []sheet.Value) []byte {
	parts := make([][]byte, len(si.cols))
	for i, c := range si.cols {
		parts[i] = encodeKeyValue(row[c])
	}
	return btree.Composite(parts...)
}

// rowKey encodes the full entry key for a row: value prefix plus RowID.
func (si *secIndex) rowKey(row []sheet.Value, id tablestore.RowID) []byte {
	return btree.Composite(si.rowKeyPrefix(row), btree.EncodeUint64(uint64(id)))
}

// hasNull reports whether any indexed column of the row is NULL; unique
// enforcement skips such rows (SQL permits repeated NULLs in unique indexes).
func (si *secIndex) hasNull(row []sheet.Value) bool {
	return slices.ContainsFunc(si.cols, func(c int) bool { return row[c].IsEmpty() })
}

// createIndex builds a secondary index over existing rows and registers it.
// With ifNotExists set, an existing index of the same name is left untouched.
func (db *Database) createIndex(name, table string, columns []string, unique, ifNotExists bool, undo *undoLog) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("sqlexec: empty index name: %w", dberr.ErrInvalidSchema)
	}
	tbl, err := db.cat.MustGet(table)
	if err != nil {
		return err
	}
	if len(columns) == 0 {
		return fmt.Errorf("sqlexec: index %q must cover at least one column: %w", name, dberr.ErrInvalidSchema)
	}
	si := &secIndex{
		def:  IndexDef{Name: name, Table: tbl.Name, Columns: append([]string(nil), columns...), Unique: unique},
		cols: make([]int, len(columns)),
		tree: btree.New(),
	}
	for i, col := range columns {
		idx, ok := tbl.ColumnIndex(col)
		if !ok {
			return fmt.Errorf("sqlexec: unknown column %q in index %q on table %q: %w", col, name, table, dberr.ErrColumnNotFound)
		}
		si.cols[i] = idx
	}
	s, err := db.store(table)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.indexByName[ikey(name)]; dup {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("sqlexec: index %q: %w", name, dberr.ErrIndexExists)
	}
	// Build under the write lock so no concurrent mutation slips between the
	// backfill scan and registration.
	var buildErr error
	err = s.Scan(func(id tablestore.RowID, row []sheet.Value) bool {
		if unique && !si.hasNull(row) {
			var occupied bool
			if occupied, buildErr = indexPrefixOccupied(si.tree, si.rowKeyPrefix(row), 0); buildErr == nil && occupied {
				buildErr = fmt.Errorf("sqlexec: cannot create unique index %q: duplicate value in table %q: %w", name, table, dberr.ErrUniqueViolation)
			}
		}
		if buildErr == nil {
			buildErr = si.tree.Set(si.rowKey(row, id), uint64(id))
		}
		return buildErr == nil
	})
	if err == nil {
		err = buildErr
	}
	if err != nil {
		return err
	}
	if db.indexByName == nil {
		db.indexByName = make(map[string]*secIndex)
	}
	db.indexByName[ikey(name)] = si
	tk := tkey(table)
	db.secIndexes[tk] = append(db.secIndexes[tk], si)
	db.invalidatePlans()
	undo.push(ChangeEvent{Table: tbl.Name, Kind: ChangeSchema}, func() error { return db.dropIndex(name, false, nil) })
	return nil
}

// dropIndex removes a secondary index. With ifExists set, a missing index is
// not an error.
func (db *Database) dropIndex(name string, ifExists bool, undo *undoLog) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	si, ok := db.indexByName[ikey(name)]
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("sqlexec: index %q: %w", name, dberr.ErrIndexNotFound)
	}
	delete(db.indexByName, ikey(name))
	db.dropTableIndexLocked(tkey(si.def.Table), si)
	db.invalidatePlans()
	def := si.def
	undo.push(ChangeEvent{Table: def.Table, Kind: ChangeSchema}, func() error { return db.createIndex(def.Name, def.Table, def.Columns, def.Unique, false, nil) })
	return nil
}

// dslint:requires(engine)
func (db *Database) dropTableIndexLocked(tk string, si *secIndex) {
	list := db.secIndexes[tk]
	for i, other := range list {
		if other == si {
			db.secIndexes[tk] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Indexes lists the secondary indexes of one table.
func (db *Database) Indexes(table string) []IndexDef {
	db.mu.RLock()
	defer db.mu.RUnlock()
	list := db.secIndexes[tkey(table)]
	out := make([]IndexDef, len(list))
	for i, si := range list {
		out[i] = si.def
	}
	return out
}

// AllIndexes lists every secondary index of the database (used by the
// durability layer to snapshot index DDL).
func (db *Database) AllIndexes() []IndexDef {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []IndexDef
	for _, t := range db.cat.List() {
		for _, si := range db.secIndexes[tkey(t.Name)] {
			out = append(out, si.def)
		}
	}
	return out
}

func ikey(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// indexPrefixOccupied reports whether any entry under the value prefix
// belongs to a row other than exclude (0 excludes nothing).
func indexPrefixOccupied(tree *btree.Tree, prefix []byte, exclude tablestore.RowID) (bool, error) {
	occupied := false
	err := tree.AscendRange(prefix, btree.PrefixEnd(prefix), func(_ []byte, val uint64) bool {
		if tablestore.RowID(val) != exclude {
			occupied = true
			return false
		}
		return true
	})
	return occupied, err
}

// --- maintenance hooks (callers hold db.mu) ---

// secCheckInsertLocked verifies unique constraints for a new row.
// dslint:requires(engine)
func (db *Database) secCheckInsertLocked(table string, row []sheet.Value) error {
	for _, si := range db.secIndexes[tkey(table)] {
		if si.def.Unique && !si.hasNull(row) {
			occupied, err := indexPrefixOccupied(si.tree, si.rowKeyPrefix(row), 0)
			if err != nil {
				return err
			}
			if occupied {
				return fmt.Errorf("sqlexec: duplicate value for unique index %q in table %q: %w", si.def.Name, table, dberr.ErrUniqueViolation)
			}
		}
	}
	return nil
}

// loadEntriesLocked loads the index leaves that hold (or would hold) the
// entries of a row — primary key pkKey in idx, plus every secondary index —
// so that the Set and Delete calls which follow find them resident and
// cannot fail after the tuple has already changed.
// dslint:requires(engine)
func (db *Database) loadEntriesLocked(table string, idx *btree.Tree, pkKey []byte, row []sheet.Value, id tablestore.RowID) error {
	if pkKey != nil {
		if _, _, err := idx.Get(pkKey); err != nil {
			return err
		}
	}
	for _, si := range db.secIndexes[tkey(table)] {
		if _, _, err := si.tree.Get(si.rowKey(row, id)); err != nil {
			return err
		}
	}
	return nil
}

// secInsertLocked adds a row's entries to every index of the table.
// dslint:requires(engine)
func (db *Database) secInsertLocked(table string, row []sheet.Value, id tablestore.RowID) error {
	for _, si := range db.secIndexes[tkey(table)] {
		if err := si.tree.Set(si.rowKey(row, id), uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// secDeleteLocked removes a row's entries from every index of the table. It
// keeps going past an index whose leaf fails to load and reports the first
// such failure.
// dslint:requires(engine)
func (db *Database) secDeleteLocked(table string, row []sheet.Value, id tablestore.RowID) error {
	var first error
	for _, si := range db.secIndexes[tkey(table)] {
		if _, err := si.tree.Delete(si.rowKey(row, id)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// secCheckUpdateLocked verifies unique constraints for a row change.
// dslint:requires(engine)
func (db *Database) secCheckUpdateLocked(table string, old, new []sheet.Value, id tablestore.RowID) error {
	for _, si := range db.secIndexes[tkey(table)] {
		if !si.def.Unique || si.hasNull(new) {
			continue
		}
		newPrefix := si.rowKeyPrefix(new)
		if string(newPrefix) == string(si.rowKeyPrefix(old)) {
			continue
		}
		occupied, err := indexPrefixOccupied(si.tree, newPrefix, id)
		if err != nil {
			return err
		}
		if occupied {
			return fmt.Errorf("sqlexec: duplicate value for unique index %q in table %q: %w", si.def.Name, table, dberr.ErrUniqueViolation)
		}
	}
	return nil
}

// secUpdateLocked rewrites a row's entries after an update.
// dslint:requires(engine)
func (db *Database) secUpdateLocked(table string, old, new []sheet.Value, id tablestore.RowID) error {
	for _, si := range db.secIndexes[tkey(table)] {
		oldKey, newKey := si.rowKey(old, id), si.rowKey(new, id)
		if string(oldKey) == string(newKey) {
			continue
		}
		if _, err := si.tree.Delete(oldKey); err != nil {
			return err
		}
		if err := si.tree.Set(newKey, uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// secColumnIndexedLocked reports whether column col of the table appears in
// any secondary index (such columns must be updated through the full Update
// path so entries stay in sync).
// dslint:requires(engine)
func (db *Database) secColumnIndexedLocked(table string, col int) bool {
	return slices.ContainsFunc(db.secIndexes[tkey(table)], func(si *secIndex) bool { return slices.Contains(si.cols, col) })
}

// secOnDropColumnLocked adjusts indexes after column idx was removed from
// the table: indexes covering the column are dropped (cascade, mirroring the
// storage managers' positional schema), the rest shift their resolved
// positions.
// dslint:requires(engine)
func (db *Database) secOnDropColumnLocked(table string, idx int) {
	tk := tkey(table)
	kept := db.secIndexes[tk][:0]
	for _, si := range db.secIndexes[tk] {
		covers := false
		for i, c := range si.cols {
			if c == idx {
				covers = true
			}
			if c > idx {
				si.cols[i] = c - 1
			}
		}
		if covers {
			delete(db.indexByName, ikey(si.def.Name))
			continue
		}
		kept = append(kept, si)
	}
	db.secIndexes[tk] = kept
}

// secOnRenameColumnLocked renames the column inside index definitions.
// dslint:requires(engine)
func (db *Database) secOnRenameColumnLocked(table, oldName, newName string) {
	for _, si := range db.secIndexes[tkey(table)] {
		for i, c := range si.def.Columns {
			if strings.EqualFold(c, oldName) {
				si.def.Columns[i] = newName
			}
		}
	}
}

// secOnDropTableLocked removes every index of a dropped table.
// dslint:requires(engine)
func (db *Database) secOnDropTableLocked(table string) {
	tk := tkey(table)
	for _, si := range db.secIndexes[tk] {
		delete(db.indexByName, ikey(si.def.Name))
	}
	delete(db.secIndexes, tk)
}
