package core

import (
	"fmt"
	"strings"

	"github.com/dataspread/dataspread/internal/catalog"
	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
)

// sheetAccessor implements sqlexec.SheetAccessor over a DataSpread workbook,
// resolving the paper's positional constructs against live sheet data.
type sheetAccessor struct {
	ds *DataSpread
}

// splitRef splits "Sheet2!B2" into sheet and reference parts; an unqualified
// reference resolves against the first sheet of the workbook.
func (sa *sheetAccessor) splitRef(ref string) (*sheet.Sheet, string, error) {
	sheetName := ""
	rest := ref
	if i := strings.Index(ref, "!"); i >= 0 {
		sheetName = ref[:i]
		rest = ref[i+1:]
	}
	if sheetName == "" {
		names := sa.ds.book.SheetNames()
		if len(names) == 0 {
			return nil, "", fmt.Errorf("core: workbook has no sheets: %w", dberr.ErrSheetNotFound)
		}
		sheetName = names[0]
	}
	sh, _, err := sa.ds.sheetOf(sheetName)
	if err != nil {
		return nil, "", err
	}
	return sh, rest, nil
}

// RangeValue implements sqlexec.SheetAccessor.
func (sa *sheetAccessor) RangeValue(ref string) (sheet.Value, error) {
	sh, rest, err := sa.splitRef(ref)
	if err != nil {
		return sheet.Empty(), err
	}
	a, err := sheet.ParseAddress(rest)
	if err != nil {
		return sheet.Empty(), fmt.Errorf("core: RANGEVALUE: %w", err)
	}
	return sh.Value(a), nil
}

// RangeTable implements sqlexec.SheetAccessor: a sheet range becomes a
// relation, with column names taken from the first row when it looks like a
// header (same heuristic as exporting a range to a table). Materialised
// ranges are cached against the sheet's version counter, so the repeated
// RANGETABLE scans of DBSQL recalculation re-read the grid only after a
// cell in the sheet actually changed.
func (sa *sheetAccessor) RangeTable(ref string, headerRow bool) ([]string, [][]sheet.Value, error) {
	sh, rest, err := sa.splitRef(ref)
	if err != nil {
		return nil, nil, err
	}
	r, err := sheet.ParseRange(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("core: RANGETABLE: %w", err)
	}
	key := sh.Name() + "\x00" + rest
	if headerRow {
		key += "\x00h"
	}
	version := sh.Version()
	ds := sa.ds
	ds.rtMu.Lock()
	if e, ok := ds.rtCache[key]; ok && e.version == version {
		names, rows := e.names, e.rows
		ds.rtMu.Unlock()
		// Callers reorder and filter the top-level slice; hand out a copy
		// and keep the cached rows themselves shared read-only.
		return names, append([][]sheet.Value(nil), rows...), nil
	}
	ds.rtMu.Unlock()

	values := sh.Values(r)
	var names []string
	rows := values
	if headerRow {
		var usedHeader bool
		if names, usedHeader = catalog.HeaderNames(values); usedHeader {
			rows = values[1:]
		}
	}
	if names == nil {
		names = make([]string, r.Cols())
		for i := range names {
			names[i] = fmt.Sprintf("col%d", i+1)
		}
	}
	ds.rtMu.Lock()
	if ds.rtCache == nil {
		ds.rtCache = make(map[string]*rangeTableEntry)
	}
	if len(ds.rtCache) >= rangeTableCacheCap {
		for k := range ds.rtCache {
			delete(ds.rtCache, k)
			if len(ds.rtCache) < rangeTableCacheCap {
				break
			}
		}
	}
	ds.rtCache[key] = &rangeTableEntry{version: version, names: names, rows: rows}
	ds.rtMu.Unlock()
	return names, append([][]sheet.Value(nil), rows...), nil
}

// rangeTableCacheCap bounds the number of cached RANGETABLE snapshots.
const rangeTableCacheCap = 16

// rangeTableEntry is one cached RANGETABLE materialisation, valid while the
// sheet's version counter is unchanged.
type rangeTableEntry struct {
	version uint64
	names   []string
	rows    [][]sheet.Value
}
