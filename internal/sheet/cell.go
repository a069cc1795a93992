package sheet

// Cell is the unit of storage on a sheet. A cell holds a computed Value and,
// when the cell was entered as a formula (input beginning with "="), the
// formula source text. Cells bound to relational data additionally carry an
// origin tag used by the interface manager for two-way synchronisation.
type Cell struct {
	// Value is the current (possibly computed) value of the cell.
	Value Value
	// Formula is the formula source without the leading "=". Empty for
	// plain literal cells.
	Formula string
	// Origin describes where the cell's content came from. Plain user
	// input has OriginUser; cells materialised from a DBTABLE binding or a
	// DBSQL result carry the binding identifier so edits can be routed back
	// to the database.
	Origin Origin
}

// OriginKind classifies how a cell's content was produced.
type OriginKind int

const (
	// OriginUser marks content typed directly by the user (or set via the
	// API) with no database backing.
	OriginUser OriginKind = iota
	// OriginTable marks a cell materialised from a DBTABLE binding; edits
	// are translated to UPDATEs on the bound table.
	OriginTable
	// OriginQuery marks a cell materialised from a DBSQL result; such
	// cells are read-only from the sheet side.
	OriginQuery
)

// Origin ties a cell back to the database object it was materialised from.
type Origin struct {
	Kind OriginKind
	// BindingID identifies the DBTABLE or DBSQL binding in the interface
	// manager. Zero for user cells.
	BindingID int64
}

// IsFormula reports whether the cell was entered as a formula.
func (c Cell) IsFormula() bool { return c.Formula != "" }

// IsEmpty reports whether the cell carries no content at all.
func (c Cell) IsEmpty() bool {
	return c.Value.IsEmpty() && c.Formula == "" && c.Origin == Origin{}
}

// MapCellStore holds a sheet's cells: a Go map keyed by address, storing
// only non-empty cells.
type MapCellStore struct {
	cells map[Address]Cell
}

// NewMapCellStore returns an empty map-backed cell store.
func NewMapCellStore() *MapCellStore {
	return &MapCellStore{cells: make(map[Address]Cell)}
}

// Get returns the cell at the address and whether one is stored there.
func (m *MapCellStore) Get(a Address) (Cell, bool) {
	c, ok := m.cells[a]
	return c, ok
}

// Set stores the cell at the address, replacing any previous content; an
// empty cell deletes it.
func (m *MapCellStore) Set(a Address, c Cell) {
	if c.IsEmpty() {
		delete(m.cells, a)
		return
	}
	m.cells[a] = c
}

// Delete removes any cell stored at the address.
func (m *MapCellStore) Delete(a Address) { delete(m.cells, a) }

// GetRange invokes fn for every stored cell within the range, in no
// particular order.
func (m *MapCellStore) GetRange(r Range, fn func(Address, Cell)) {
	// For small ranges on large stores, probing each address directly is
	// cheaper than scanning the whole map; pick whichever touches fewer
	// entries.
	if r.Size() < len(m.cells) {
		for row := r.Start.Row; row <= r.End.Row; row++ {
			for col := r.Start.Col; col <= r.End.Col; col++ {
				a := Addr(row, col)
				if c, ok := m.cells[a]; ok {
					fn(a, c)
				}
			}
		}
		return
	}
	for a, c := range m.cells {
		if r.Contains(a) {
			fn(a, c)
		}
	}
}

// Len returns the number of stored cells.
func (m *MapCellStore) Len() int { return len(m.cells) }

// Bounds returns the smallest range containing every stored cell and
// false when the store is empty.
func (m *MapCellStore) Bounds() (Range, bool) {
	if len(m.cells) == 0 {
		return Range{}, false
	}
	first := true
	var b Range
	for a := range m.cells {
		if first {
			b = Range{Start: a, End: a}
			first = false
			continue
		}
		b = b.Union(Range{Start: a, End: a})
	}
	return b, true
}

// InsertRows shifts all cells at or below row down by count; a negative
// count deletes rows, dropping the cells in the deleted band.
func (m *MapCellStore) InsertRows(row, count int) {
	if count == 0 {
		return
	}
	moved := make(map[Address]Cell)
	for a, c := range m.cells {
		if a.Row < row {
			continue
		}
		delete(m.cells, a)
		if count < 0 && a.Row < row-count {
			continue // cell falls inside the deleted band
		}
		moved[Addr(a.Row+count, a.Col)] = c
	}
	for a, c := range moved {
		m.cells[a] = c
	}
}

// InsertCols shifts all cells at or right of col right by count; a
// negative count deletes columns.
func (m *MapCellStore) InsertCols(col, count int) {
	if count == 0 {
		return
	}
	moved := make(map[Address]Cell)
	for a, c := range m.cells {
		if a.Col < col {
			continue
		}
		delete(m.cells, a)
		if count < 0 && a.Col < col-count {
			continue
		}
		moved[Addr(a.Row, a.Col+count)] = c
	}
	for a, c := range moved {
		m.cells[a] = c
	}
}
