package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// RowStore stores tuples in slotted pages, each page holding up to
// rowsPerPage complete tuples. This is the conventional layout of a row
// oriented relational engine: point operations touch a single block, but any
// schema change must rewrite every block of the table.
type RowStore struct {
	pool      *pager.BufferPool
	width     int
	pages     []pager.PageID
	zones     []*pageZones  // parallel to pages; nil entry = unknown
	dir       map[RowID]int // RowID -> index into pages
	tailCount int
	nextID    RowID
	rowCount  int
	cache     decodedCache
}

// NewRowStore creates an empty row store with the given number of columns.
func NewRowStore(pool *pager.BufferPool, columns int) *RowStore {
	return &RowStore{pool: pool, width: columns, dir: make(map[RowID]int), nextID: 1}
}

// Layout implements Store.
func (s *RowStore) Layout() string { return "row" }

// ColumnCount implements Store.
func (s *RowStore) ColumnCount() int { return s.width }

// RowCount implements Store.
func (s *RowStore) RowCount() int { return s.rowCount }

// PageCount returns the number of data blocks used by the table.
func (s *RowStore) PageCount() int { return len(s.pages) }

// readPage decodes a private copy of a page for the mutation paths, which
// edit the returned slices in place before writing them back.
func (s *RowStore) readPage(idx int) ([]RowID, [][]sheet.Value, error) {
	data, err := s.pool.Get(s.pages[idx])
	if err != nil {
		return nil, nil, err
	}
	return decodeTuples(data)
}

// readPageShared returns the cached decoded page for the read-only paths;
// callers must not modify the returned slices.
func (s *RowStore) readPageShared(idx int) ([]RowID, [][]sheet.Value, error) {
	return s.cache.getTuplesAt(s.pool, liveEpoch, s.pages[idx])
}

// writePage is the single choke point for page mutations: every rewrite
// re-encodes the page (v2 container) and replaces its zone summary, so the
// catalog is exact after any insert/update/delete/schema change.
func (s *RowStore) writePage(idx int, ids []RowID, rows [][]sheet.Value) error {
	buf, pz := encodeTuplesV2(ids, rows, s.width)
	if err := s.pool.Put(s.pages[idx], buf); err != nil {
		return err
	}
	s.zones = setZone(s.zones, idx, pz)
	return nil
}

// Insert implements Store.
func (s *RowStore) Insert(row []sheet.Value) (RowID, error) {
	if err := checkWidth(row, s.width); err != nil {
		return 0, err
	}
	if len(s.pages) == 0 || s.tailCount >= rowsPerPage {
		pid, err := s.pool.AllocatePage()
		if err != nil {
			return 0, err
		}
		s.pages = append(s.pages, pid)
		s.tailCount = 0
	}
	tail := len(s.pages) - 1
	ids, rows, err := s.readPage(tail)
	if err != nil {
		return 0, err
	}
	id := s.nextID
	s.nextID++
	ids = append(ids, id)
	rows = append(rows, cloneRow(row))
	if err := s.writePage(tail, ids, rows); err != nil {
		return 0, err
	}
	s.dir[id] = tail
	s.tailCount++
	s.rowCount++
	return id, nil
}

// Get implements Store.
func (s *RowStore) Get(id RowID) ([]sheet.Value, error) { return s.GetCols(id, nil, nil) }

// GetCols implements Store. Row layouts decode the whole tuple regardless;
// the column subset only narrows what is copied out.
func (s *RowStore) GetCols(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, error) {
	for _, c := range cols {
		if c < 0 || c >= s.width {
			return nil, fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
	}
	pi, ok := s.dir[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	if rowPageSkips(s.zones, pi, bounds) {
		return nil, nil
	}
	ids, rows, err := s.readPageShared(pi)
	if err != nil {
		return nil, err
	}
	for i, rid := range ids {
		if rid != id {
			continue
		}
		row := rows[i]
		if cols == nil {
			return cloneRow(row), nil
		}
		out := make([]sheet.Value, len(cols))
		for j, c := range cols {
			if c < len(row) {
				out[j] = row[c]
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrRowNotFound, id)
}

// Update implements Store.
func (s *RowStore) Update(id RowID, row []sheet.Value) error {
	if err := checkWidth(row, s.width); err != nil {
		return err
	}
	pi, ok := s.dir[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	ids, rows, err := s.readPage(pi)
	if err != nil {
		return err
	}
	for i, rid := range ids {
		if rid == id {
			rows[i] = cloneRow(row)
			return s.writePage(pi, ids, rows)
		}
	}
	return fmt.Errorf("%w: %d", ErrRowNotFound, id)
}

// UpdateColumn implements Store.
func (s *RowStore) UpdateColumn(id RowID, col int, v sheet.Value) error {
	if col < 0 || col >= s.width {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	pi, ok := s.dir[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	ids, rows, err := s.readPage(pi)
	if err != nil {
		return err
	}
	for i, rid := range ids {
		if rid == id {
			rows[i][col] = v
			return s.writePage(pi, ids, rows)
		}
	}
	return fmt.Errorf("%w: %d", ErrRowNotFound, id)
}

// Delete implements Store.
func (s *RowStore) Delete(id RowID) error {
	pi, ok := s.dir[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	ids, rows, err := s.readPage(pi)
	if err != nil {
		return err
	}
	for i, rid := range ids {
		if rid == id {
			ids = append(ids[:i], ids[i+1:]...)
			rows = append(rows[:i], rows[i+1:]...)
			if err := s.writePage(pi, ids, rows); err != nil {
				return err
			}
			delete(s.dir, id)
			s.rowCount--
			if pi == len(s.pages)-1 && s.tailCount > 0 {
				s.tailCount--
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrRowNotFound, id)
}

// AddColumn implements Store. Every page of the table is rewritten — the
// cost the hybrid layout avoids.
func (s *RowStore) AddColumn(defaultValue sheet.Value) error {
	s.width++
	for pi := range s.pages {
		ids, rows, err := s.readPage(pi)
		if err != nil {
			return err
		}
		for i := range rows {
			rows[i] = append(rows[i], defaultValue)
		}
		if err := s.writePage(pi, ids, rows); err != nil {
			return err
		}
	}
	return nil
}

// DropColumn implements Store. Every page of the table is rewritten.
func (s *RowStore) DropColumn(col int) error {
	if col < 0 || col >= s.width {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	s.width--
	for pi := range s.pages {
		ids, rows, err := s.readPage(pi)
		if err != nil {
			return err
		}
		for i := range rows {
			rows[i] = append(rows[i][:col], rows[i][col+1:]...)
		}
		if err := s.writePage(pi, ids, rows); err != nil {
			return err
		}
	}
	return nil
}
