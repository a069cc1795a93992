package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
)

// Page-level data skipping: the per-layout arithmetic behind
// TableSnap.Partitions and the bounds argument of Store.GetCols. Each layout
// answers two questions from its zone catalog — which partition-space runs
// can a scan with these bounds not skip, and how many physical pages do they
// cover — in its own partition units.

// --- row layout (page-index space) ---

// rowPageSkips reports whether any bound proves page pi matchless.
func rowPageSkips(zones []*pageZones, pi int, bounds []ZoneBound) bool {
	if pi >= len(zones) || zones[pi] == nil {
		return false
	}
	pz := zones[pi]
	for i := range bounds {
		b := &bounds[i]
		if b.Col >= 0 && b.Col < len(pz.cols) && pz.cols[b.Col].Skips(*b) {
			return true
		}
	}
	return false
}

func rowKeptPages(zones []*pageZones, nPages int, bounds []ZoneBound) []Partition {
	skip := skipIntervalsFor(nPages, 1, nPages, func(pi int) bool {
		return rowPageSkips(zones, pi, bounds)
	})
	return complementParts(nPages, skip)
}

// --- column layout (slot space, uniform valuesPerPage granularity) ---

// colChunkSkips reports whether any bound proves slot chunk ci matchless.
func colChunkSkips(cols []colPages, ci int, bounds []ZoneBound) bool {
	for i := range bounds {
		b := &bounds[i]
		if b.Col < 0 || b.Col >= len(cols) {
			continue
		}
		zs := cols[b.Col].zones
		if ci < len(zs) && zs[ci] != nil && len(zs[ci].cols) == 1 && zs[ci].cols[0].Skips(*b) {
			return true
		}
	}
	return false
}

func colKeptRuns(cols []colPages, slotCount int, bounds []ZoneBound) []Partition {
	nChunks := (slotCount + valuesPerPage - 1) / valuesPerPage
	skip := skipIntervalsFor(nChunks, valuesPerPage, slotCount, func(ci int) bool {
		return colChunkSkips(cols, ci, bounds)
	})
	return complementParts(slotCount, skip)
}

// colPageStats converts kept slot runs into physical page counts over the
// wanted columns.
func colPageStats(kept []Partition, slotCount, wantCols int) (total, read int) {
	nChunks := (slotCount + valuesPerPage - 1) / valuesPerPage
	readChunks := overlapCount(kept, valuesPerPage, nChunks)
	return nChunks * wantCols, readChunks * wantCols
}

// --- hybrid layout (slot space, per-group granularity) ---

// hybridSkipRuns unions each bound's skippable slot intervals; bounds land
// on different groups with different rows-per-page, so intervals are
// computed per bound and merged.
func hybridSkipRuns(groups []attrGroup, colMap []colLocation, slotCount int, bounds []ZoneBound) []Partition {
	var skip []Partition
	for i := range bounds {
		b := &bounds[i]
		if b.Col < 0 || b.Col >= len(colMap) {
			continue
		}
		loc := colMap[b.Col]
		g := &groups[loc.group]
		if g.width == 0 || g.rowsPer <= 0 {
			continue
		}
		cur := skipIntervalsFor(len(g.zones), g.rowsPer, slotCount, func(pi int) bool {
			pz := g.zones[pi]
			return pz != nil && loc.offset < len(pz.cols) && pz.cols[loc.offset].Skips(*b)
		})
		skip = unionParts(skip, cur)
	}
	return skip
}

// hybridPageStats accumulates page counts over the distinct groups serving
// the wanted columns.
func hybridPageStats(groups []attrGroup, colMap []colLocation, kept []Partition, slotCount int, cols []int) (total, read int) {
	wantGroups := make(map[int]bool)
	if cols == nil {
		for _, loc := range colMap {
			wantGroups[loc.group] = true
		}
	} else {
		for _, c := range cols {
			if c >= 0 && c < len(colMap) {
				wantGroups[colMap[c].group] = true
			}
		}
	}
	for gi := range wantGroups {
		g := &groups[gi]
		if g.width == 0 || g.rowsPer <= 0 {
			continue
		}
		n := (slotCount + g.rowsPer - 1) / g.rowsPer
		if n > len(g.pages) {
			n = len(g.pages)
		}
		total += n
		read += overlapCount(kept, g.rowsPer, n)
	}
	return total, read
}

// hybridSlotSkips reports whether any bound proves the row at slot
// matchless, consulting the zone of the one page that holds the bound's
// column for that slot.
func hybridSlotSkips(groups []attrGroup, colMap []colLocation, slot int, bounds []ZoneBound) bool {
	for i := range bounds {
		b := &bounds[i]
		if b.Col < 0 || b.Col >= len(colMap) {
			continue
		}
		loc := colMap[b.Col]
		g := &groups[loc.group]
		if g.width == 0 || g.rowsPer <= 0 {
			continue
		}
		pi := slot / g.rowsPer
		if pi < len(g.zones) && g.zones[pi] != nil && loc.offset < len(g.zones[pi].cols) &&
			g.zones[pi].cols[loc.offset].Skips(*b) {
			return true
		}
	}
	return false
}

// --- zone validation (fuzz/test support) ---

// ValidateZones implements Store.
func (s *RowStore) ValidateZones() error {
	for pi := range s.pages {
		if pi >= len(s.zones) || s.zones[pi] == nil {
			continue
		}
		_, rows, err := s.readPage(pi)
		if err != nil {
			return err
		}
		if err := validateTuplZones(s.zones[pi], rows, s.width, "row", pi); err != nil {
			return err
		}
	}
	return nil
}

// ValidateZones implements Store.
func (s *ColStore) ValidateZones() error {
	for c := range s.cols {
		for pi := range s.cols[c].pages {
			zs := s.cols[c].zones
			if pi >= len(zs) || zs[pi] == nil {
				continue
			}
			vals, err := s.readColPage(c, pi)
			if err != nil {
				return err
			}
			if len(zs[pi].cols) != 1 {
				return fmt.Errorf("tablestore: column %d page %d zone has %d columns", c, pi, len(zs[pi].cols))
			}
			z := &zs[pi].cols[0]
			for off, v := range vals {
				if !z.covers(v) {
					return fmt.Errorf("tablestore: column %d page %d slot %d: zone does not cover %v", c, pi, off, v)
				}
			}
		}
	}
	return nil
}

// ValidateZones implements Store.
func (s *HybridStore) ValidateZones() error {
	for gi := range s.groups {
		g := &s.groups[gi]
		for pi := range g.pages {
			if pi >= len(g.zones) || g.zones[pi] == nil {
				continue
			}
			_, rows, err := s.readGroupPage(gi, pi)
			if err != nil {
				return err
			}
			if err := validateTuplZones(g.zones[pi], rows, g.width, fmt.Sprintf("group %d", gi), pi); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateTuplZones(pz *pageZones, rows [][]sheet.Value, width int, what string, pi int) error {
	if len(pz.cols) != width {
		return fmt.Errorf("tablestore: %s page %d zone has %d columns, want %d", what, pi, len(pz.cols), width)
	}
	for i, row := range rows {
		for c := 0; c < width; c++ {
			v := sheet.Empty()
			if c < len(row) {
				v = row[c]
			}
			if !pz.cols[c].covers(v) {
				return fmt.Errorf("tablestore: %s page %d row %d col %d: zone does not cover %v", what, pi, i, c, v)
			}
		}
	}
	return nil
}
