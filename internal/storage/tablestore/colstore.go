package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// ColStore stores each attribute in its own chain of blocks. Schema changes
// touch only the affected column's blocks, but tuple-granular operations
// (insert, full-row update, point read) touch one block per column. It is the
// other extreme the hybrid layout interpolates between.
//
// Rows occupy dense slots in insertion order; deletes are tombstones. RowID n
// lives at slot n-1.
type ColStore struct {
	pool      *pager.BufferPool
	cols      []colPages
	deleted   map[RowID]bool
	slotCount int
	nextID    RowID
	rowCount  int
	cache     decodedCache
}

type colPages struct {
	pages []pager.PageID
	zones []*pageZones // parallel to pages; nil entry = unknown
}

// NewColStore creates an empty column store with the given number of columns.
func NewColStore(pool *pager.BufferPool, columns int) *ColStore {
	return &ColStore{
		pool:    pool,
		cols:    make([]colPages, columns),
		deleted: make(map[RowID]bool),
		nextID:  1,
	}
}

// Layout implements Store.
func (s *ColStore) Layout() string { return "column" }

// ColumnCount implements Store.
func (s *ColStore) ColumnCount() int { return len(s.cols) }

// RowCount implements Store.
func (s *ColStore) RowCount() int { return s.rowCount }

// PageCount returns the total number of data blocks across all columns.
func (s *ColStore) PageCount() int {
	n := 0
	for _, c := range s.cols {
		n += len(c.pages)
	}
	return n
}

// readColPage decodes a private copy of a column page for the mutation
// paths, which edit the returned slice in place before writing it back.
func (s *ColStore) readColPage(col, pi int) ([]sheet.Value, error) {
	data, err := s.pool.Get(s.cols[col].pages[pi])
	if err != nil {
		return nil, err
	}
	return decodeColumn(data)
}

// readColPageShared returns the cached decoded page for the read-only paths;
// callers must not modify the returned slice.
func (s *ColStore) readColPageShared(col, pi int) ([]sheet.Value, error) {
	return s.cache.getColumnAt(s.pool, liveEpoch, s.cols[col].pages[pi])
}

// writeColPage is the single choke point for column-page mutations: every
// rewrite re-encodes the page (v2 container) and replaces its zone summary.
func (s *ColStore) writeColPage(col, pi int, vals []sheet.Value) error {
	buf, pz := encodeColumnV2(vals)
	if err := s.pool.Put(s.cols[col].pages[pi], buf); err != nil {
		return err
	}
	s.cols[col].zones = setZone(s.cols[col].zones, pi, pz)
	return nil
}

func (s *ColStore) checkID(id RowID) error {
	if id == 0 || id >= s.nextID || s.deleted[id] {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	return nil
}

// Insert implements Store. One block per column is touched.
func (s *ColStore) Insert(row []sheet.Value) (RowID, error) {
	if err := checkWidth(row, len(s.cols)); err != nil {
		return 0, err
	}
	slot := s.slotCount
	pi := slot / valuesPerPage
	for c := range s.cols {
		if pi == len(s.cols[c].pages) {
			pid, err := s.pool.AllocatePage()
			if err != nil {
				return 0, err
			}
			s.cols[c].pages = append(s.cols[c].pages, pid)
		}
		vals, err := s.readColPage(c, pi)
		if err != nil {
			return 0, err
		}
		vals = append(vals, row[c])
		if err := s.writeColPage(c, pi, vals); err != nil {
			return 0, err
		}
	}
	id := s.nextID
	s.nextID++
	s.slotCount++
	s.rowCount++
	return id, nil
}

// Get implements Store.
func (s *ColStore) Get(id RowID) ([]sheet.Value, error) { return s.GetCols(id, nil, nil) }

// GetCols implements Store. Only the requested columns' blocks are read.
func (s *ColStore) GetCols(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, error) {
	if err := s.checkID(id); err != nil {
		return nil, err
	}
	slot := int(id - 1)
	pi, off := slot/valuesPerPage, slot%valuesPerPage
	if colChunkSkips(s.cols, pi, bounds) {
		return nil, nil
	}
	n := len(cols)
	if cols == nil {
		n = len(s.cols)
	}
	out := make([]sheet.Value, n)
	for j := range out {
		c := j
		if cols != nil {
			c = cols[j]
		}
		if c < 0 || c >= len(s.cols) {
			return nil, fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
		vals, err := s.readColPageShared(c, pi)
		if err != nil {
			return nil, err
		}
		if off < len(vals) {
			out[j] = vals[off]
		}
	}
	return out, nil
}

// Update implements Store. One block per column is touched.
func (s *ColStore) Update(id RowID, row []sheet.Value) error {
	if err := checkWidth(row, len(s.cols)); err != nil {
		return err
	}
	if err := s.checkID(id); err != nil {
		return err
	}
	slot := int(id - 1)
	pi, off := slot/valuesPerPage, slot%valuesPerPage
	for c := range s.cols {
		vals, err := s.readColPage(c, pi)
		if err != nil {
			return err
		}
		if off >= len(vals) {
			return fmt.Errorf("%w: %d", ErrRowNotFound, id)
		}
		vals[off] = row[c]
		if err := s.writeColPage(c, pi, vals); err != nil {
			return err
		}
	}
	return nil
}

// UpdateColumn implements Store. Only the affected column's block is touched.
func (s *ColStore) UpdateColumn(id RowID, col int, v sheet.Value) error {
	if col < 0 || col >= len(s.cols) {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	if err := s.checkID(id); err != nil {
		return err
	}
	slot := int(id - 1)
	pi, off := slot/valuesPerPage, slot%valuesPerPage
	vals, err := s.readColPage(col, pi)
	if err != nil {
		return err
	}
	if off >= len(vals) {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	vals[off] = v
	return s.writeColPage(col, pi, vals)
}

// Delete implements Store (tombstone).
func (s *ColStore) Delete(id RowID) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	s.deleted[id] = true
	s.rowCount--
	return nil
}

// AddColumn implements Store. Only the new column's blocks are written; no
// existing block is touched.
func (s *ColStore) AddColumn(defaultValue sheet.Value) error {
	var cp colPages
	for base := 0; base < s.slotCount; base += valuesPerPage {
		limit := s.slotCount - base
		if limit > valuesPerPage {
			limit = valuesPerPage
		}
		vals := make([]sheet.Value, limit)
		for i := range vals {
			vals[i] = defaultValue
		}
		pid, err := s.pool.AllocatePage()
		if err != nil {
			return err
		}
		buf, pz := encodeColumnV2(vals)
		if err := s.pool.Put(pid, buf); err != nil {
			return err
		}
		cp.pages = append(cp.pages, pid)
		cp.zones = append(cp.zones, pz)
	}
	s.cols = append(s.cols, cp)
	return nil
}

// DropColumn implements Store. The column's blocks are freed; nothing else is
// touched.
func (s *ColStore) DropColumn(col int) error {
	if col < 0 || col >= len(s.cols) {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	for _, pid := range s.cols[col].pages {
		s.pool.Free(pid)
	}
	s.cols = append(s.cols[:col], s.cols[col+1:]...)
	return nil
}
