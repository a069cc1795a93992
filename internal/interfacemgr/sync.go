package interfacemgr

import (
	"fmt"
	"slices"
	"strings"

	"github.com/dataspread/dataspread/internal/compute"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// --- materialisation (database -> sheet) ---

// materializeTable writes a table binding's visible content onto the sheet:
// the header plus either every row (small tables) or only the rows that fall
// inside the current window (large tables).
func (m *Manager) materializeTable(b *Binding) error {
	sh, ok := m.book.Sheet(b.SheetName)
	if !ok {
		return fmt.Errorf("interfacemgr: unknown sheet %q", b.SheetName)
	}
	// Determine which display positions to materialise.
	startPos, count := 0, b.positions.Len()
	if b.WindowOnly && m.windows != nil {
		win := m.windows.Window(b.SheetName)
		// Data row at display position p lives at sheet row Anchor.Row+1+p.
		startPos = win.Start.Row - b.Anchor.Row - 1
		if startPos < 0 {
			startPos = 0
		}
		count = win.Rows() + 1 // a little slack below the window
	}
	// Clear the previously materialised extent.
	if b.hasExt {
		sh.ClearRange(b.extent)
	}
	var changed []compute.CellID
	// Header row.
	for c, name := range b.Columns {
		a := sheet.Addr(b.Anchor.Row, b.Anchor.Col+c)
		sh.SetCell(a, sheet.Cell{Value: sheet.String_(name), Origin: sheet.Origin{Kind: sheet.OriginTable, BindingID: b.ID}})
		changed = append(changed, compute.CellID{Sheet: b.SheetName, Addr: a})
		m.bumpCells(1)
	}
	maxRow := b.Anchor.Row
	maxCol := b.Anchor.Col + len(b.Columns) - 1
	// Data rows.
	written := 0
	b.positions.Scan(startPos, count, func(pos int, payload uint64) bool {
		row, err := m.db.Get(b.Table, tablestore.RowID(payload))
		if err != nil {
			return true
		}
		sheetRow := b.Anchor.Row + 1 + pos
		for c := range b.Columns {
			var v sheet.Value
			if c < len(row) {
				v = row[c]
			}
			a := sheet.Addr(sheetRow, b.Anchor.Col+c)
			sh.SetCell(a, sheet.Cell{Value: v, Origin: sheet.Origin{Kind: sheet.OriginTable, BindingID: b.ID}})
			changed = append(changed, compute.CellID{Sheet: b.SheetName, Addr: a})
		}
		if sheetRow > maxRow {
			maxRow = sheetRow
		}
		written++
		return true
	})
	m.bumpCells(uint64(written * len(b.Columns)))
	b.extent = sheet.RangeOf(b.Anchor.Row, b.Anchor.Col, maxRow, maxCol)
	b.hasExt = true
	m.mu.Lock()
	m.stats.Refreshes++
	m.mu.Unlock()
	if m.engine != nil && len(changed) > 0 {
		m.engine.NotifyChanged(changed...)
	}
	return nil
}

// refreshQuery brings a query binding's spill up to date. Refreshes of one
// binding never overlap; the engine hears of the spilled cells after the
// binding is released.
func (m *Manager) refreshQuery(b *Binding) error {
	b.refreshMu.Lock()
	changed, err := m.refreshQueryLocked(b)
	b.refreshMu.Unlock()
	if m.engine != nil && len(changed) > 0 {
		m.engine.NotifyChanged(changed...)
	}
	return err
}

// refreshQueryLocked re-executes a query binding and spills its result,
// returning the cells it wrote — unless the fingerprint of every input
// (schema epoch, provenance sketch or table data versions, referenced sheet
// versions) matches the previous successful refresh, in which case the
// spilled cells are already current and the execution is skipped outright.
// The fingerprint is captured before the query runs, and kept only if no
// table or sheet it reads changed meanwhile: a write that lands mid-run is
// then never mistaken for one the result saw.
func (m *Manager) refreshQueryLocked(b *Binding) ([]compute.CellID, error) {
	fp, memoable := m.fingerprintQuery(b)
	if memoable && b.hasExt && b.memo.equal(fp) {
		m.mu.Lock()
		m.stats.MemoHits++
		m.mu.Unlock()
		return nil, nil
	}
	b.memo = nil
	res, err := m.run(b.query)
	if err != nil {
		return nil, err
	}
	sh, ok := m.book.Sheet(b.SheetName)
	if !ok {
		return nil, fmt.Errorf("interfacemgr: unknown sheet %q", b.SheetName)
	}
	// The spill below overwrites every cell of the new extent, so only the
	// part of the old extent the new result no longer covers needs
	// clearing. A same-shaped refresh (the common recalculation case)
	// clears nothing.
	newExt := sheet.RangeOf(b.Anchor.Row, b.Anchor.Col,
		b.Anchor.Row+len(res.Rows), b.Anchor.Col+maxInt(len(res.Columns)-1, 0))
	var stale []sheet.Address
	if b.hasExt {
		sh.ForEachInRange(b.extent, func(a sheet.Address, _ sheet.Cell) {
			if !newExt.Contains(a) {
				stale = append(stale, a)
			}
		})
		for _, a := range stale {
			sh.Clear(a)
		}
	}
	b.Columns = res.Columns
	changed := make([]compute.CellID, 0, (len(res.Rows)+1)*len(res.Columns))
	origin := sheet.Origin{Kind: sheet.OriginQuery, BindingID: b.ID}
	sh.SetCellBatch(func(set func(sheet.Address, sheet.Cell)) {
		// Header.
		for c, name := range res.Columns {
			a := sheet.Addr(b.Anchor.Row, b.Anchor.Col+c)
			set(a, sheet.Cell{Value: sheet.String_(name), Origin: origin})
			changed = append(changed, compute.CellID{Sheet: b.SheetName, Addr: a})
		}
		// Result rows, computed collectively in a single pass
		// (set-at-a-time) rather than one formula per cell.
		for r, row := range res.Rows {
			for c := range res.Columns {
				var v sheet.Value
				if c < len(row) {
					v = row[c]
				}
				a := sheet.Addr(b.Anchor.Row+1+r, b.Anchor.Col+c)
				set(a, sheet.Cell{Value: v, Origin: origin})
				changed = append(changed, compute.CellID{Sheet: b.SheetName, Addr: a})
			}
		}
	})
	m.bumpCells(uint64(len(changed)))
	m.mu.Lock()
	b.extent = newExt
	b.hasExt = true
	m.stats.Refreshes++
	m.mu.Unlock()
	// The spill's own writes (one Clear per stale cell, one batch) advance
	// the target sheet's entry, so a query reading ranges of the sheet it
	// spills to still memoizes. A spill that overwrites its own input ranges
	// is the exception: it is never memoized, since the advanced version
	// would pin a result computed from the pre-overwrite inputs.
	if memoable && sameVersions(fp.tables, m.tableVersions(b)) &&
		m.sheetsSettled(fp, b.SheetName, uint64(len(stale))+1) && !m.spillOverlapsInputs(b) {
		b.memo = fp
	}
	return changed, nil
}

// RefreshBinding fully rematerialises a binding.
func (m *Manager) RefreshBinding(id int64) error {
	m.mu.Lock()
	b, ok := m.bindings[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("interfacemgr: no binding %d", id)
	}
	switch b.Kind {
	case KindTable:
		// Rebuild position index from the table (row count may have
		// changed).
		var ids []uint64
		if err := m.db.Scan(b.Table, func(rid tablestore.RowID, _ []sheet.Value) bool {
			ids = append(ids, uint64(rid))
			return true
		}); err != nil {
			return err
		}
		if err := b.positions.BulkLoad(ids); err != nil {
			return err
		}
		return m.materializeTable(b)
	default:
		return m.refreshQuery(b)
	}
}

// OnScroll rematerialises window-only table bindings of the sheet after the
// window moved (fetch-on-demand panning).
func (m *Manager) OnScroll(sheetName string) error {
	m.mu.Lock()
	var targets []*Binding
	for _, b := range m.bindings {
		if b.Kind == KindTable && b.WindowOnly && strings.EqualFold(b.SheetName, sheetName) {
			targets = append(targets, b)
		}
	}
	m.mu.Unlock()
	for _, b := range targets {
		if err := m.materializeTable(b); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) bumpCells(n uint64) {
	m.mu.Lock()
	m.stats.CellsWritten += n
	m.mu.Unlock()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- sheet -> database (front-end edits) ---

// HandleSheetEdit routes a user edit at a bound cell to the database. It
// returns handled=false when the cell does not belong to any binding, in
// which case the caller treats it as ordinary sheet content. Edits to query
// results and to header cells are rejected.
func (m *Manager) HandleSheetEdit(sheetName string, a sheet.Address, v sheet.Value) (handled bool, err error) {
	b, ok := m.BindingAt(sheetName, a)
	if !ok {
		return false, nil
	}
	if b.Kind == KindQuery {
		return true, fmt.Errorf("interfacemgr: cells produced by DBSQL are read-only")
	}
	if a.Row == b.Anchor.Row {
		return true, fmt.Errorf("interfacemgr: the header row of a DBTABLE binding is read-only")
	}
	pos := a.Row - b.Anchor.Row - 1
	col := a.Col - b.Anchor.Col
	payload, ok := b.positions.Get(pos)
	if !ok {
		return true, fmt.Errorf("interfacemgr: no bound row at display position %d", pos)
	}
	if col < 0 || col >= len(b.Columns) {
		return true, fmt.Errorf("interfacemgr: column %d outside the bound table", col)
	}
	err = m.db.UpdateColumn(b.Table, tablestore.RowID(payload), col, v)
	m.mu.Lock()
	m.stats.EditsPushed++
	m.mu.Unlock()
	// The update UpdateColumn published has rewritten the row, with the
	// stored (possibly coerced) values, in every binding of the table that
	// shows it, this one included.
	return true, err
}

// LocationOfKey maps a tuple's primary key to its current display location
// within a table binding (paper: "the interface manager maintains a mapping
// between a tuple's key attribute and its corresponding location").
func (m *Manager) LocationOfKey(bindingID int64, key []sheet.Value) (sheet.Address, bool, error) {
	b, ok := m.Binding(bindingID)
	if !ok || b.Kind != KindTable {
		return sheet.Address{}, false, fmt.Errorf("interfacemgr: no table binding %d", bindingID)
	}
	rid, found, err := m.db.FindByKey(b.Table, key)
	if err != nil || !found {
		return sheet.Address{}, false, err
	}
	pos, ok := b.positions.PositionOf(uint64(rid))
	if !ok {
		return sheet.Address{}, false, nil
	}
	return sheet.Addr(b.Anchor.Row+1+pos, b.Anchor.Col), true, nil
}

// --- database -> sheet (back-end changes) ---

// onDBChanges keeps bound regions in step with one published change set: a
// statement's, a COMMIT's or a ROLLBACK's (sqlexec/undo.go). A query binding
// whose SQL reads a table whose rows changed refreshes once per set, and its
// memo decides whether the query runs again. A table binding applies
// inserts and updates in place, re-materialises once when the set deletes
// rows of its table, changes its schema or restores a row applyRow cannot
// append in order, and unbinds when the table is gone.
func (m *Manager) onDBChanges(changes []sqlexec.ChangeEvent) {
	m.mu.Lock()
	var targets []*Binding
	for _, b := range m.bindings {
		if slices.ContainsFunc(changes, b.changedBy) {
			targets = append(targets, b)
		}
	}
	m.mu.Unlock()
	for _, b := range targets {
		if b.Kind == KindQuery {
			_ = m.refreshQuery(b)
			continue
		}
		tbl, err := m.db.Table(b.Table)
		if err != nil {
			m.Unbind(b.ID)
			continue
		}
		inPlace := !slices.ContainsFunc(changes, func(ev sqlexec.ChangeEvent) bool {
			return b.changedBy(ev) && (ev.Kind == sqlexec.ChangeDelete || ev.Kind == sqlexec.ChangeSchema)
		})
		for _, ev := range changes {
			if inPlace && b.changedBy(ev) { // an insert or update
				inPlace = m.applyRow(b, ev.RowID)
			}
		}
		if !inPlace {
			b.Columns = tbl.ColumnNames()
			_ = m.RefreshBinding(b.ID)
		}
	}
}

// changedBy reports whether a change concerns the binding: any change of a
// table binding's table, and a row change or drop of a table a query
// binding's SQL reads.
func (b *Binding) changedBy(ev sqlexec.ChangeEvent) bool {
	if b.Kind == KindTable {
		return strings.EqualFold(b.Table, ev.Table)
	}
	return ev.Kind != sqlexec.ChangeSchema && slices.ContainsFunc(b.tables, func(t string) bool { return strings.EqualFold(t, ev.Table) })
}

// applyRow rewrites the cells of an inserted or updated row if they are
// materialised, first appending a row the binding does not hold yet. It
// reports false, changing nothing, for a missing row that appending would
// put out of RowID order: a ROLLBACK restores a deleted row at its own
// RowID, which a binding re-materialised meanwhile has passed.
func (m *Manager) applyRow(b *Binding, id tablestore.RowID) bool {
	pos, ok := b.positions.PositionOf(uint64(id))
	if !ok {
		pos = b.positions.Len()
		if last, ok := b.positions.Get(pos - 1); ok && last >= uint64(id) {
			return false
		}
		_ = b.positions.Append(uint64(id))
	}
	m.mu.Lock()
	m.stats.IncrementalOps++
	m.mu.Unlock()
	if b.WindowOnly && m.windows != nil && !m.windows.Contains(b.SheetName, sheet.Addr(b.Anchor.Row+1+pos, b.Anchor.Col)) {
		return true // not visible; will be materialised when scrolled to
	}
	m.writeRow(b, pos, id)
	return true
}

// writeRow materialises one data row of a table binding.
func (m *Manager) writeRow(b *Binding, pos int, id tablestore.RowID) {
	sh, ok := m.book.Sheet(b.SheetName)
	if !ok {
		return
	}
	row, err := m.db.Get(b.Table, id)
	if err != nil {
		return
	}
	sheetRow := b.Anchor.Row + 1 + pos
	var changed []compute.CellID
	for c := range b.Columns {
		var v sheet.Value
		if c < len(row) {
			v = row[c]
		}
		a := sheet.Addr(sheetRow, b.Anchor.Col+c)
		sh.SetCell(a, sheet.Cell{Value: v, Origin: sheet.Origin{Kind: sheet.OriginTable, BindingID: b.ID}})
		changed = append(changed, compute.CellID{Sheet: b.SheetName, Addr: a})
	}
	m.bumpCells(uint64(len(b.Columns)))
	if sheetRow > b.extent.End.Row {
		b.extent.End.Row = sheetRow
	}
	if m.engine != nil {
		m.engine.NotifyChanged(changed...)
	}
}
