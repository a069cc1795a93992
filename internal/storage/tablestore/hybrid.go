package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// DefaultGroupSize is the number of attributes per group when a table is
// created. Experiment A1 sweeps this parameter: size 1 behaves like a column
// store, size >= #columns behaves like a row store.
const DefaultGroupSize = 4

// Shape names a group size after the classic layout it reproduces.
type Shape struct {
	Name      string
	GroupSize int
}

// Shapes are the group sizes the golden suites run every table under, since
// results must not depend on grouping: "row" keeps whole tuples of any
// table up to 64 columns together, "column" stores every column apart, and
// "hybrid" pairs columns, so a 4-column table gets two multi-column groups
// (at DefaultGroupSize it would be one group, the same as "row").
var Shapes = []Shape{{"row", 64}, {"column", 1}, {"hybrid", 2}}

// HybridStore is the paper's relational storage manager: attributes are
// partitioned into groups, and each group is stored together in its own chain
// of blocks (a "mini row store" per group).
//
//   - Adding an attribute creates a new group, so only the new attribute's
//     backfill blocks are written — schema change cost is independent of the
//     existing table width, "almost as efficient as changes to tuples".
//   - Tuple operations touch one block per group rather than one per column,
//     so point updates stay close to row-store cost.
//
// Rows occupy dense slots in insertion order; deletes are tombstones. RowID n
// lives at slot n-1.
type HybridStore struct {
	pool      *pager.BufferPool
	groups    []attrGroup
	colMap    []colLocation // column index -> location
	deleted   map[RowID]bool
	slotCount int
	nextID    RowID
	rowCount  int
	groupSize int
	cache     decodedCache
	// attached is a zone catalog reattached at open that no writer has
	// adopted yet; while it is set, every group's own zones are nil.
	attached *attachedZones
}

type attrGroup struct {
	width   int
	rowsPer int // tuples per block for this group (narrow groups pack more)
	pages   []pager.PageID
	zones   []*pageZones // parallel to pages; nil entry = unknown
}

type colLocation struct {
	group  int
	offset int
}

// HybridOption configures a HybridStore.
type HybridOption func(*hybridConfig)

type hybridConfig struct {
	groupSize int
}

// WithGroupSize sets how many of the initial columns are placed per group.
func WithGroupSize(n int) HybridOption {
	return func(c *hybridConfig) { c.groupSize = n }
}

// groupRowsPer sizes a group's blocks so that a block holds roughly
// valuesPerPage values regardless of group width.
func groupRowsPer(width int) int {
	if width < 1 {
		width = 1
	}
	n := valuesPerPage / width
	if n < 1 {
		n = 1
	}
	return n
}

// NewHybridStore creates an empty hybrid store with the given number of
// columns, partitioned into attribute groups.
func NewHybridStore(pool *pager.BufferPool, columns int, opts ...HybridOption) *HybridStore {
	cfg := hybridConfig{groupSize: DefaultGroupSize}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.groupSize < 1 {
		cfg.groupSize = 1
	}
	s := &HybridStore{
		pool:      pool,
		deleted:   make(map[RowID]bool),
		nextID:    1,
		groupSize: cfg.groupSize,
	}
	for start := 0; start < columns; start += cfg.groupSize {
		width := cfg.groupSize
		if start+width > columns {
			width = columns - start
		}
		gi := len(s.groups)
		s.groups = append(s.groups, attrGroup{width: width, rowsPer: groupRowsPer(width)})
		for off := 0; off < width; off++ {
			s.colMap = append(s.colMap, colLocation{group: gi, offset: off})
		}
	}
	return s
}

// ColumnCount implements Store.
func (s *HybridStore) ColumnCount() int { return len(s.colMap) }

// RowCount implements Store.
func (s *HybridStore) RowCount() int { return s.rowCount }

// GroupCount returns the number of live (non-empty) attribute groups.
func (s *HybridStore) GroupCount() int {
	n := 0
	for _, g := range s.groups {
		if g.width > 0 {
			n++
		}
	}
	return n
}

// PageCount returns the total number of data blocks across all groups.
func (s *HybridStore) PageCount() int {
	n := 0
	for _, g := range s.groups {
		n += len(g.pages)
	}
	return n
}

func (s *HybridStore) checkID(id RowID) error {
	if id == 0 || id >= s.nextID || s.deleted[id] {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	return nil
}

// readGroupPage decodes a private copy of a group page for the mutation
// paths, which edit the returned slices in place before writing them back.
func (s *HybridStore) readGroupPage(gi, pi int) ([]RowID, [][]sheet.Value, error) {
	id := s.groups[gi].pages[pi]
	data, err := s.pool.Get(id)
	if err != nil {
		return nil, nil, listedPageErr(id, err)
	}
	return decodeTuples(data, s.groups[gi].width)
}

// readGroupPageShared returns the cached decoded page for the read-only
// paths; callers must not modify the returned slices.
func (s *HybridStore) readGroupPageShared(gi, pi int) ([]RowID, [][]sheet.Value, error) {
	return s.cache.getTuplesAt(s.pool, liveEpoch, s.groups[gi].pages[pi], s.groups[gi].width)
}

// writeGroupPage is the single choke point for group-page mutations: every
// rewrite re-encodes the page (v2 container) and replaces its zone summary.
func (s *HybridStore) writeGroupPage(gi, pi int, ids []RowID, rows [][]sheet.Value, width int) error {
	s.adoptZones()
	buf, pz := encodeTuplesV2(ids, rows, width)
	if err := s.pool.Put(s.groups[gi].pages[pi], buf); err != nil {
		return err
	}
	s.groups[gi].zones = setZone(s.groups[gi].zones, pi, pz)
	return nil
}

// project extracts the group's attribute values from a full tuple.
func (s *HybridStore) project(row []sheet.Value, gi int) []sheet.Value {
	out := make([]sheet.Value, s.groups[gi].width)
	for col, loc := range s.colMap {
		if loc.group == gi {
			out[loc.offset] = row[col]
		}
	}
	return out
}

// Insert implements Store. One block per group is touched.
func (s *HybridStore) Insert(row []sheet.Value) (RowID, error) {
	if err := checkWidth(row, len(s.colMap)); err != nil {
		return 0, err
	}
	slot := s.slotCount
	id := s.nextID
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.width == 0 {
			continue
		}
		pi := slot / g.rowsPer
		if pi == len(g.pages) {
			pid, err := s.pool.AllocatePage()
			if err != nil {
				return 0, err
			}
			g.pages = append(g.pages, pid)
		}
		ids, rows, err := s.readGroupPage(gi, pi)
		if err != nil {
			return 0, err
		}
		ids = append(ids, id)
		rows = append(rows, s.project(row, gi))
		if err := s.writeGroupPage(gi, pi, ids, rows, g.width); err != nil {
			return 0, err
		}
	}
	s.nextID++
	s.slotCount++
	s.rowCount++
	return id, nil
}

// Get implements Store.
func (s *HybridStore) Get(id RowID) ([]sheet.Value, error) { return s.GetCols(id, nil, nil) }

// GetCols implements Store. Only the blocks of attribute groups that hold a
// requested column are read.
func (s *HybridStore) GetCols(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, error) {
	if err := s.checkID(id); err != nil {
		return nil, err
	}
	slot := int(id - 1)
	if hybridSlotSkips(s.groups, s.attached, s.colMap, slot, bounds) {
		return nil, nil
	}
	n := len(cols)
	if cols == nil {
		n = len(s.colMap)
	}
	out := make([]sheet.Value, n)
	// One shared page read per distinct group among the requested columns.
	var curGroup, curPage = -1, -1
	var rows [][]sheet.Value
	for j := range out {
		c := j
		if cols != nil {
			c = cols[j]
		}
		if c < 0 || c >= len(s.colMap) {
			return nil, fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
		loc := s.colMap[c]
		g := &s.groups[loc.group]
		pi, off := slot/g.rowsPer, slot%g.rowsPer
		if loc.group != curGroup || pi != curPage {
			var err error
			if _, rows, err = s.readGroupPageShared(loc.group, pi); err != nil {
				return nil, err
			}
			curGroup, curPage = loc.group, pi
		}
		if off >= len(rows) {
			return nil, fmt.Errorf("%w: %d", ErrRowNotFound, id)
		}
		out[j] = rows[off][loc.offset]
	}
	return out, nil
}

// Update implements Store. One block per group is touched.
func (s *HybridStore) Update(id RowID, row []sheet.Value) error {
	if err := checkWidth(row, len(s.colMap)); err != nil {
		return err
	}
	if err := s.checkID(id); err != nil {
		return err
	}
	slot := int(id - 1)
	for gi := range s.groups {
		g := &s.groups[gi]
		if g.width == 0 {
			continue
		}
		pi, off := slot/g.rowsPer, slot%g.rowsPer
		ids, rows, err := s.readGroupPage(gi, pi)
		if err != nil {
			return err
		}
		if off >= len(rows) {
			return fmt.Errorf("%w: %d", ErrRowNotFound, id)
		}
		rows[off] = s.project(row, gi)
		if err := s.writeGroupPage(gi, pi, ids, rows, g.width); err != nil {
			return err
		}
	}
	return nil
}

// UpdateColumn implements Store. Only the block of the group containing the
// column is touched.
func (s *HybridStore) UpdateColumn(id RowID, col int, v sheet.Value) error {
	if col < 0 || col >= len(s.colMap) {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	if err := s.checkID(id); err != nil {
		return err
	}
	loc := s.colMap[col]
	g := &s.groups[loc.group]
	slot := int(id - 1)
	pi, off := slot/g.rowsPer, slot%g.rowsPer
	ids, rows, err := s.readGroupPage(loc.group, pi)
	if err != nil {
		return err
	}
	if off >= len(rows) {
		return fmt.Errorf("%w: %d", ErrRowNotFound, id)
	}
	rows[off][loc.offset] = v
	return s.writeGroupPage(loc.group, pi, ids, rows, g.width)
}

// Delete implements Store (tombstone).
func (s *HybridStore) Delete(id RowID) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	s.deleted[id] = true
	s.rowCount--
	return nil
}

// Restore implements Store: it clears the tombstone, since the slot's
// values never left its pages.
func (s *HybridStore) Restore(id RowID) error {
	if !s.deleted[id] {
		return fmt.Errorf("%w: %d is not deleted", ErrRowNotFound, id)
	}
	delete(s.deleted, id)
	s.rowCount++
	return nil
}

// AddColumn implements Store. A new single-attribute group is created and
// backfilled; no existing block is touched, which is the paper's headline
// storage property.
func (s *HybridStore) AddColumn(defaultValue sheet.Value) error {
	s.adoptZones()
	gi := len(s.groups)
	g := attrGroup{width: 1, rowsPer: groupRowsPer(1)}
	for base := 0; base < s.slotCount; base += g.rowsPer {
		limit := s.slotCount - base
		if limit > g.rowsPer {
			limit = g.rowsPer
		}
		ids := make([]RowID, limit)
		rows := make([][]sheet.Value, limit)
		for i := 0; i < limit; i++ {
			ids[i] = RowID(base + i + 1)
			rows[i] = []sheet.Value{defaultValue}
		}
		pid, err := s.pool.AllocatePage()
		if err != nil {
			return err
		}
		buf, pz := encodeTuplesV2(ids, rows, 1)
		if err := s.pool.Put(pid, buf); err != nil {
			return err
		}
		g.pages = append(g.pages, pid)
		g.zones = append(g.zones, pz)
	}
	s.groups = append(s.groups, g)
	s.colMap = append(s.colMap, colLocation{group: gi, offset: 0})
	return nil
}

// DropColumn implements Store. Only the blocks of the group containing the
// column are rewritten (or freed outright when the group had a single
// attribute).
func (s *HybridStore) DropColumn(col int) error {
	if col < 0 || col >= len(s.colMap) {
		return fmt.Errorf("%w: %d", ErrColumnRange, col)
	}
	s.adoptZones()
	loc := s.colMap[col]
	g := &s.groups[loc.group]
	if g.width == 1 {
		// Whole group disappears; free its blocks.
		for _, pid := range g.pages {
			s.pool.Free(pid)
		}
		g.pages = nil
		g.zones = nil
		g.width = 0
	} else {
		// Rewrite the group's blocks without the dropped attribute.
		newWidth := g.width - 1
		for pi := range g.pages {
			ids, rows, err := s.readGroupPage(loc.group, pi)
			if err != nil {
				return err
			}
			for i := range rows {
				rows[i] = append(rows[i][:loc.offset], rows[i][loc.offset+1:]...)
			}
			if err := s.writeGroupPage(loc.group, pi, ids, rows, newWidth); err != nil {
				return err
			}
		}
		g.width = newWidth
	}
	// Rebuild the column map without the dropped column, shifting offsets
	// of columns that followed it within the same group.
	newMap := make([]colLocation, 0, len(s.colMap)-1)
	for i, l := range s.colMap {
		if i == col {
			continue
		}
		if l.group == loc.group && l.offset > loc.offset {
			l.offset--
		}
		newMap = append(newMap, l)
	}
	s.colMap = newMap
	return nil
}
