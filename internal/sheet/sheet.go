package sheet

import (
	"fmt"
	"strings"
	"sync"
)

// Sheet is a single named grid of cells. It is safe for concurrent use; all
// access is serialised by an internal mutex, which matches the single-writer
// model the paper's compute engine assumes (asynchronous recomputation
// happens on background goroutines that read and write cells).
type Sheet struct {
	mu      sync.RWMutex
	name    string
	store   *MapCellStore
	version uint64
}

// New creates an empty sheet with the given name.
func New(name string) *Sheet {
	return &Sheet{name: name, store: NewMapCellStore()}
}

// Name returns the sheet's name.
func (s *Sheet) Name() string { return s.name }

// Version returns a counter that increases on every mutation of the sheet's
// cells. Consumers (e.g. the RANGETABLE scan cache) use it to validate
// snapshots without watching individual cells.
func (s *Sheet) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Get returns the cell stored at the address; empty cells return the zero
// Cell.
func (s *Sheet) Get(a Address) Cell {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, _ := s.store.Get(a)
	return c
}

// Value returns the current value of the cell at the address.
func (s *Sheet) Value(a Address) Value {
	return s.Get(a).Value
}

// SetCell stores a fully specified cell.
func (s *Sheet) SetCell(a Address, c Cell) {
	if !a.Valid() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.store.Set(a, c)
}

// SetValue stores a plain value at the address, clearing any formula.
func (s *Sheet) SetValue(a Address, v Value) {
	s.SetCell(a, Cell{Value: v})
}

// SetCellBatch applies many cell writes under a single lock acquisition and
// version bump. fn receives a setter equivalent to SetCell; the setter must
// not be retained after fn returns. Bulk materialisation (query spills,
// table imports) uses this to avoid per-cell locking.
func (s *Sheet) SetCellBatch(fn func(set func(Address, Cell))) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	fn(func(a Address, c Cell) {
		if a.Valid() {
			s.store.Set(a, c)
		}
	})
}

// SetComputedValue updates only the value of the cell at the address,
// preserving its formula and origin. Used by the compute engine when a
// formula's result changes.
func (s *Sheet) SetComputedValue(a Address, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	c, _ := s.store.Get(a)
	c.Value = v
	s.store.Set(a, c)
}

// Clear removes the cell at the address.
func (s *Sheet) Clear(a Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.store.Delete(a)
}

// ClearRange removes every cell in the range.
func (s *Sheet) ClearRange(r Range) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	var addrs []Address
	s.store.GetRange(r, func(a Address, _ Cell) { addrs = append(addrs, a) })
	for _, a := range addrs {
		s.store.Delete(a)
	}
}

// ForEachInRange invokes fn for every non-empty cell in the range.
func (s *Sheet) ForEachInRange(r Range, fn func(Address, Cell)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.store.GetRange(r, fn)
}

// Values returns the values of a range as a dense row-major matrix, with
// empty values where no cell is stored.
func (s *Sheet) Values(r Range) [][]Value {
	out := make([][]Value, r.Rows())
	for i := range out {
		out[i] = make([]Value, r.Cols())
	}
	s.ForEachInRange(r, func(a Address, c Cell) {
		out[a.Row-r.Start.Row][a.Col-r.Start.Col] = c.Value
	})
	return out
}

// SetValues writes a dense matrix of values with its top-left corner at the
// given address and returns the covered range.
func (s *Sheet) SetValues(topLeft Address, vals [][]Value) Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	maxCols := 0
	for ri, row := range vals {
		if len(row) > maxCols {
			maxCols = len(row)
		}
		for ci, v := range row {
			a := Addr(topLeft.Row+ri, topLeft.Col+ci)
			if v.IsEmpty() {
				s.store.Delete(a)
				continue
			}
			c, _ := s.store.Get(a)
			c.Value = v
			c.Formula = ""
			s.store.Set(a, c)
		}
	}
	if len(vals) == 0 || maxCols == 0 {
		return Range{Start: topLeft, End: topLeft}
	}
	return Range{Start: topLeft, End: Addr(topLeft.Row+len(vals)-1, topLeft.Col+maxCols-1)}
}

// CellCount returns the number of non-empty cells on the sheet.
func (s *Sheet) CellCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Len()
}

// UsedRange returns the bounding range of all non-empty cells.
func (s *Sheet) UsedRange() (Range, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Bounds()
}

// InsertRows shifts cells at or below `row` down by count. Negative counts
// delete rows.
func (s *Sheet) InsertRows(row, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.store.InsertRows(row, count)
}

// InsertCols shifts cells at or right of `col` right by count. Negative
// counts delete columns.
func (s *Sheet) InsertCols(col, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.store.InsertCols(col, count)
}

// String summarises the sheet for debugging.
func (s *Sheet) String() string {
	return fmt.Sprintf("Sheet(%s, %d cells)", s.name, s.CellCount())
}

// Book is a collection of named sheets — the spreadsheet "workbook". Sheet
// names are case-insensitive: every lookup folds the name, and a sheet keeps
// the spelling it was created with.
type Book struct {
	mu     sync.RWMutex
	sheets map[string]*Sheet // by FoldName
	order  []string
}

// FoldName is the case-folded key a sheet name is looked up by.
func FoldName(name string) string { return strings.ToLower(name) }

// NewBook creates an empty workbook.
func NewBook() *Book {
	return &Book{sheets: make(map[string]*Sheet)}
}

// AddSheet creates and returns a new sheet with the given name. If a sheet
// with the name already exists, in any case, it is returned unchanged.
func (b *Book) AddSheet(name string) *Sheet {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := FoldName(name)
	if sh, ok := b.sheets[key]; ok {
		return sh
	}
	sh := New(name)
	b.sheets[key] = sh
	b.order = append(b.order, name)
	return sh
}

// Sheet returns the named sheet, matched case-insensitively, and whether it
// exists.
func (b *Book) Sheet(name string) (*Sheet, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	sh, ok := b.sheets[FoldName(name)]
	return sh, ok
}

// SheetNames returns the sheet names in creation order.
func (b *Book) SheetNames() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// RemoveSheet deletes the named sheet.
func (b *Book) RemoveSheet(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := FoldName(name)
	sh, ok := b.sheets[key]
	if !ok {
		return
	}
	delete(b.sheets, key)
	for i, n := range b.order {
		if n == sh.name {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}
