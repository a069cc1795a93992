// Package tablestore implements the relational storage manager: the paper's
// hybrid layout (§2.2), where attributes are grouped and each group is
// stored together in its own chain of blocks. HybridStore is the one implementation of Store. The
// attribute-group size spans the whole spectrum between the classic layouts:
//
//   - group size 1 stores every column apart, like a column store: a schema
//     change touches only the new column's blocks, but a full-row insert or
//     update touches one block per column;
//   - a group size at least the table's width stores whole tuples together,
//     like a row store: tuple operations touch one block;
//   - in between (DefaultGroupSize), tuple operations touch one block per
//     group while adding a column still writes only that column's new group.
//     This is what makes "schema change … almost as efficient as changes to
//     tuples" (§2.2) while keeping tuple updates cheap.
//
// Stores persist through a pager.BufferPool so experiments can compare
// block-touch counts (experiment A1 sweeps the group size).
//
// Rows are read through ONE contract: Store.Snapshot pins a point-in-time
// TableSnap, TableSnap.Partitions cuts it into contiguous ranges — dropping
// the pages the zone maps prove matchless when the caller passes bounds —
// and TableSnap.ScanColsRange is the single tuple loop. The store's own Scan
// (DML targets, index builds) runs that same loop through a borrowed view of
// the live structures.
package tablestore

import (
	"errors"
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// RowID identifies a tuple within a table store. RowIDs are assigned by
// Insert, start at 1, and are never reused.
//
// dslint:row
type RowID uint64

// ErrRowNotFound is returned for operations on missing or deleted rows.
var ErrRowNotFound = errors.New("tablestore: row not found")

// ErrColumnRange is returned when a column index is out of range.
var ErrColumnRange = errors.New("tablestore: column index out of range")

// Store is a table's storage manager. It hides the page format from the
// executor. Implementations are not safe for concurrent mutation; the
// database layer serialises access.
type Store interface {
	// Insert appends a tuple and returns its RowID. The tuple must have
	// exactly ColumnCount values.
	Insert(row []sheet.Value) (RowID, error)
	// Get returns a copy of the tuple.
	Get(id RowID) ([]sheet.Value, error)
	// GetCols returns a copy of the tuple materializing only the columns
	// listed in cols (nil means all columns, in schema order): row[i] holds
	// the value of column cols[i]. Only the blocks of attribute groups that
	// hold a requested column are paged in, which is what makes index scans
	// cheap: the access-path layer
	// fetches candidate rows by RowID with exactly the referenced columns.
	// With bounds, the zone maps of the page(s) holding id are consulted
	// first: when one proves the row cannot match, GetCols returns a nil
	// row and a nil error without paging in or decoding anything.
	GetCols(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, error)
	// Update replaces the tuple. The tuple must have ColumnCount values.
	Update(id RowID, row []sheet.Value) error
	// UpdateColumn replaces a single attribute of the tuple.
	UpdateColumn(id RowID, col int, v sheet.Value) error
	// Delete removes the tuple.
	Delete(id RowID) error
	// Restore brings back a tuple Delete removed, at its own RowID.
	Restore(id RowID) error
	// Scan calls fn for every live tuple in RowID order; it stops early if
	// fn returns false. The row passed to fn is owned by the caller. Like
	// every other Store call it needs writers excluded for its duration.
	// dslint:perrow
	Scan(fn func(id RowID, row []sheet.Value) bool) error
	// Snapshot pins the current state for lock-free reads. Call with
	// writers excluded; use the returned TableSnap without any lock;
	// Release when done.
	Snapshot() TableSnap
	// AddColumn appends an attribute to the schema, backfilling existing
	// tuples with the default value.
	AddColumn(defaultValue sheet.Value) error
	// DropColumn removes the attribute at index col.
	DropColumn(col int) error
	// ColumnCount returns the current number of attributes.
	ColumnCount() int
	// RowCount returns the number of live tuples.
	RowCount() int
	// MarshalMeta serialises the store's page directory — page lists,
	// counters, tombstones — with page ids resolved to their physical
	// backend ids. OpenHybridStore(pool, meta) attaches a store to the same
	// pages without replaying any history (meta.go).
	MarshalMeta() []byte
	// AppendPages appends the logical pool pages the store currently
	// references to dst, for checkpoint reachability and protection sets
	// (BufferPool.ResolveAll turns them into backend pages).
	AppendPages(dst []pager.PageID) []pager.PageID
	// MarshalZones serialises the store's current zone-map catalog.
	MarshalZones() []byte
	// AttachZones replaces the store's zone catalog with a previously
	// marshalled one, which it keeps undecoded — the caller must not modify
	// data afterwards — until the first bounded read, page write, schema
	// change, MarshalZones or ValidateZones. It returns an error, leaving the
	// catalog empty, only for a payload without its tag; one that fails to
	// decode on first use leaves the catalog empty too. Either way the store
	// remains fully usable, without skipping.
	AttachZones(data []byte) error
	// ValidateZones re-decodes every summarised page and checks that its
	// zone covers every stored value — the invariant that makes skipping
	// safe (fuzz and golden tests call it after churn).
	ValidateZones() error
}

// valuesPerPage controls how many values are packed per block: a group of
// width w packs valuesPerPage/w tuples. It approximates PageSize for typical
// numeric tuples; the pager charges oversized blocks as multiple writes so
// wide text rows are still accounted for.
const valuesPerPage = 512

// checkWidth validates tuple width against the schema.
func checkWidth(row []sheet.Value, want int) error {
	if len(row) != want {
		return fmt.Errorf("tablestore: tuple has %d values, schema has %d columns", len(row), want)
	}
	return nil
}
