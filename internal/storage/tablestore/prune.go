package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
)

// Page-level data skipping: the arithmetic behind TableSnap.Partitions and
// the bounds argument of Store.GetCols. From the zone catalog it answers two
// questions in slot space — which runs can a scan with these bounds not
// skip, and how many physical pages do they cover.

// hybridSkipRuns unions each bound's skippable slot intervals; bounds land
// on different groups with different rows-per-page, so intervals are
// computed per bound and merged.
func hybridSkipRuns(groups []attrGroup, att *attachedZones, colMap []colLocation, slotCount int, bounds []ZoneBound) []Partition {
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
		zones := att.zones(groups, loc.group)
		cur := skipIntervalsFor(len(zones), g.rowsPer, slotCount, func(pi int) bool {
			pz := zones[pi]
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
func hybridSlotSkips(groups []attrGroup, att *attachedZones, colMap []colLocation, slot int, bounds []ZoneBound) bool {
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
		pi, zones := slot/g.rowsPer, att.zones(groups, loc.group)
		if pi < len(zones) && zones[pi] != nil && loc.offset < len(zones[pi].cols) &&
			zones[pi].cols[loc.offset].Skips(*b) {
			return true
		}
	}
	return false
}

// --- zone validation (fuzz/test support) ---

// ValidateZones implements Store.
func (s *HybridStore) ValidateZones() error {
	for gi := range s.groups {
		g, zones := &s.groups[gi], s.attached.zones(s.groups, gi)
		for pi := range g.pages {
			if pi >= len(zones) || zones[pi] == nil {
				continue
			}
			pz := zones[pi]
			if len(pz.cols) != g.width {
				return fmt.Errorf("tablestore: group %d page %d zone has %d columns, want %d", gi, pi, len(pz.cols), g.width)
			}
			_, rows, err := s.readGroupPage(gi, pi)
			if err != nil {
				return err
			}
			for i, row := range rows {
				for c := 0; c < g.width; c++ {
					v := sheet.Empty()
					if c < len(row) {
						v = row[c]
					}
					if !pz.cols[c].covers(v) {
						return fmt.Errorf("tablestore: group %d page %d row %d col %d: zone does not cover %v", gi, pi, i, c, v)
					}
				}
			}
		}
	}
	return nil
}
