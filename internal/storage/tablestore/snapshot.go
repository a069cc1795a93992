package tablestore

import (
	"fmt"
	"math"
	"sync"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Table snapshots: lock-free point-in-time reads over a pinned pool epoch —
// the one way rows are read out of a table.
//
// Snapshot() pins a BufferPool epoch and captures the store's structural
// state (page lists, column map, tombstones, zone catalog, row counts) by
// value. The returned TableSnap then serves scans with NO external
// synchronization: page content as of the epoch comes from
// BufferPool.GetAt, which retains superseded versions until the last pinned
// reader drains, and the captured structure is private to the snapshot.
// Writers mutating the live store — inserts, deletes, schema changes, even a
// DROP TABLE — cannot change what the snapshot observes.
//
// Snapshot() itself must be called with writers excluded (the engine lock,
// at least read-held) because it reads the store's mutable fields; every
// method on the returned TableSnap is safe without any lock.
//
// Scans are partitionable for morsel-driven parallelism: Partitions splits
// the row space into contiguous ranges such that running ScanColsRange over
// the partitions in order yields exactly the rows, in exactly the order, a
// full scan would — minus the pages the zone maps prove matchless when
// bounds are given. A skip is taken only when a page's zone summary PROVES
// no stored value can satisfy a bound, so pruned and unpruned scans are
// row-for-row identical once the caller re-applies its predicates. Partition
// bounds are slot numbers; callers treat them as opaque.
//
// There is exactly one tuple loop, the snapshot's ScanColsRange. The
// store's own Scan runs it through view(): a borrowed snapshot that shares
// the live structures instead of copying them and reads current page
// versions (liveEpoch) instead of pinning an epoch — valid only while the
// caller excludes writers, which every Store call already requires.

// Partition is one contiguous range of a snapshot's row space, [Lo, Hi) in
// slots. Obtain partitions from TableSnap.Partitions and pass them back to
// ScanColsRange unchanged.
type Partition struct {
	Lo, Hi int
}

// wholeTable covers every partition unit of any snapshot; ScanColsRange
// clips it to the rows that exist.
var wholeTable = Partition{Lo: 0, Hi: math.MaxInt}

// TableSnap is an immutable point-in-time view of one table.
type TableSnap interface {
	// RowCount returns the number of live rows at snapshot time.
	RowCount() int
	// ColumnCount returns the table width at snapshot time.
	ColumnCount() int
	// Partitions splits the snapshot into roughly n non-empty contiguous
	// ranges; concatenating ScanColsRange outputs in partition order
	// reproduces the serial scan order exactly. With bounds, the ranges the
	// zone maps prove empty of matches are left out (partitions never span
	// such a gap, so a few more than n can result) and pagesRead /
	// pagesSkipped count the physical pages of cols (nil = all: the columns
	// the scan will read) the scan will touch and has been spared; without
	// bounds nothing is consulted and both are zero.
	Partitions(n int, cols []int, bounds []ZoneBound) (parts []Partition, pagesRead, pagesSkipped int)
	// ScanColsRange calls fn for every live tuple of one partition in RowID
	// order, materializing only the columns listed in cols (nil means all
	// columns, in schema order), so attribute groups that hold no listed
	// column are never paged in: row[i] holds the value of column cols[i].
	// It stops early if fn returns false. Unless
	// ScanColsStable(cols) reports true the row slice is reused between
	// calls: fn must copy any value it retains, and must never modify the
	// slice contents. Distinct partitions may be scanned concurrently from
	// different goroutines.
	// dslint:perrow
	ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error
	// AdmittedPages reports, in scan order, the physical pages of cols (nil =
	// all) that a scan with these bounds reads — every page the zone maps
	// cannot rule out — each with its BufferPool version at the snapshot's
	// epoch. A page id with an unchanged version holds unchanged content, so
	// two equal reports prove the rows those bounds can admit are unchanged,
	// tombstone deletes (which rewrite no page) excepted.
	AdmittedPages(cols []int, bounds []ZoneBound) []PageVersion
	// ScanColsStable reports whether the rows ScanColsRange(_, cols, ...)
	// passes to fn remain valid after fn returns — they alias immutable
	// decoded page snapshots rather than a reused scratch buffer — letting
	// callers retain them without a copy.
	ScanColsStable(cols []int) bool
	// Release unpins the snapshot's epoch; superseded page versions it held
	// become collectable. Idempotent. Callers must not use the snapshot
	// after Release.
	Release()
}

// liveEpoch is the epoch of a borrowed view: no page stamp exceeds it, so
// BufferPool.GetAt serves the current content and version of every page.
const liveEpoch = ^uint64(0)

// epochPin funnels a snapshot's release-once discipline.
type epochPin struct {
	pool    *pager.BufferPool
	epoch   uint64
	release sync.Once
}

func (p *epochPin) Release() {
	p.release.Do(func() { p.pool.ReleaseEpoch(p.epoch) })
}

// PageVersion is one page a bounded read admits and its version.
type PageVersion struct {
	Page    pager.PageID
	Version uint64
}

// admit appends the pages of one chain — per partition units each — that
// overlap the kept runs, in order, with their versions at the pinned epoch.
func (p *epochPin) admit(out []PageVersion, kept []Partition, per int, pages []pager.PageID) []PageVersion {
	last := -1
	for _, r := range kept {
		if r.Hi <= r.Lo {
			continue
		}
		lo, hi := max(r.Lo/per, last+1), min((r.Hi-1)/per, len(pages)-1)
		for pi := lo; pi <= hi; pi++ {
			v, _ := p.pool.VersionAt(p.epoch, pages[pi])
			out = append(out, PageVersion{Page: pages[pi], Version: v})
			last = pi
		}
	}
	return out
}

// wantCols resolves a scan's column list against a table of the given width:
// nil expands to every column in schema order, and an index outside the
// table is ErrColumnRange.
func wantCols(cols []int, width int) ([]int, error) {
	if cols == nil {
		cols = make([]int, width)
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= width {
			return nil, fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
	}
	return cols, nil
}

// splitRange cuts [0, total) into at most n non-empty contiguous pieces.
func splitRange(total, n int) []Partition {
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	parts := make([]Partition, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := total*i/n, total*(i+1)/n
		if hi > lo {
			parts = append(parts, Partition{Lo: lo, Hi: hi})
		}
	}
	return parts
}

type hybridSnap struct {
	epochPin
	cache     *decodedCache
	groups    []attrGroup
	colMap    []colLocation
	deleted   map[RowID]bool
	slotCount int
	rowCount  int
	attached  *attachedZones
}

// view borrows the store's current state (see the file comment).
func (s *HybridStore) view() *hybridSnap {
	return &hybridSnap{
		epochPin:  epochPin{pool: s.pool, epoch: liveEpoch},
		cache:     &s.cache,
		groups:    s.groups,
		colMap:    s.colMap,
		deleted:   s.deleted,
		slotCount: s.slotCount,
		rowCount:  s.rowCount,
		attached:  s.attached,
	}
}

// Scan implements Store: the full-width tuple loop over a borrowed view,
// handing fn rows it owns.
func (s *HybridStore) Scan(fn func(id RowID, row []sheet.Value) bool) error {
	return s.view().ScanColsRange(wholeTable, nil, func(id RowID, row []sheet.Value) bool {
		return fn(id, cloneRow(row))
	})
}

// Snapshot implements Store.
func (s *HybridStore) Snapshot() TableSnap {
	snap := s.view()
	snap.epoch = s.pool.OpenEpoch()
	// groups entries are mutated in place by DropColumn (width/pages), so
	// the slice of structs is deep-copied; page-id slices within are
	// append-only and share safely. Zone slices are NOT append-only —
	// writeGroupPage replaces entries in place — so each group's zones are
	// copied too. A pending attached catalog is shared as is: it is
	// immutable once decoded.
	snap.groups = append([]attrGroup(nil), s.groups...)
	for gi := range snap.groups {
		snap.groups[gi].zones = cloneZones(snap.groups[gi].zones)
	}
	snap.colMap = append([]colLocation(nil), s.colMap...)
	snap.deleted = cloneDeleted(s.deleted)
	return snap
}

func (s *hybridSnap) RowCount() int    { return s.rowCount }
func (s *hybridSnap) ColumnCount() int { return len(s.colMap) }

// Partitions splits by slot.
func (s *hybridSnap) Partitions(n int, cols []int, bounds []ZoneBound) ([]Partition, int, int) {
	if len(bounds) == 0 {
		return splitRange(s.slotCount, n), 0, 0
	}
	kept := complementParts(s.slotCount, hybridSkipRuns(s.groups, s.attached, s.colMap, s.slotCount, bounds))
	total, read := hybridPageStats(s.groups, s.colMap, kept, s.slotCount, cols)
	return splitRuns(kept, n), read, total - read
}

// AdmittedPages implements TableSnap: the pages of every group that holds a
// wanted column, group by group.
func (s *hybridSnap) AdmittedPages(cols []int, bounds []ZoneBound) []PageVersion {
	want, err := wantCols(cols, len(s.colMap))
	if err != nil {
		return nil
	}
	kept := complementParts(s.slotCount, hybridSkipRuns(s.groups, s.attached, s.colMap, s.slotCount, bounds))
	var out []PageVersion
	seen := make([]bool, len(s.groups))
	for _, c := range want {
		gi := s.colMap[c].group
		if g := &s.groups[gi]; !seen[gi] && g.width > 0 && g.rowsPer > 0 {
			seen[gi] = true
			out = s.admit(out, kept, g.rowsPer, g.pages)
		}
	}
	return out
}

// singleGroupScan reports the group whose stored tuples can be passed
// through unchanged — the wanted columns are exactly that group's
// attributes in order — or -1 when the scan spans groups or reorders.
func (s *hybridSnap) singleGroupScan(want []int) int {
	if len(want) == 0 {
		return -1
	}
	gi := s.colMap[want[0]].group
	if s.groups[gi].width != len(want) {
		return -1
	}
	for j, c := range want {
		loc := s.colMap[c]
		if loc.group != gi || loc.offset != j {
			return -1
		}
	}
	return gi
}

// ScanColsStable: a scan served by a single aligned group hands out the
// decoded page rows themselves.
func (s *hybridSnap) ScanColsStable(cols []int) bool {
	want, err := wantCols(cols, len(s.colMap))
	return err == nil && s.singleGroupScan(want) >= 0
}

// ScanColsRange implements TableSnap. Only the blocks of the attribute
// groups that contain a requested column are read — groups holding only
// unreferenced columns are never paged in.
func (s *hybridSnap) ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error {
	want, err := wantCols(cols, len(s.colMap))
	if err != nil {
		return err
	}
	lo, hi := p.Lo, p.Hi
	if hi > s.slotCount {
		hi = s.slotCount
	}
	hasDeleted := len(s.deleted) > 0
	// Fast path: the wanted columns are exactly one group's tuples, so the
	// decoded rows pass through with no scratch copy at all.
	if gi := s.singleGroupScan(want); gi >= 0 {
		g := &s.groups[gi]
		var rows [][]sheet.Value
		var empty []sheet.Value
		cur := -1
		for slot := lo; slot < hi; slot++ {
			id := RowID(slot + 1)
			if hasDeleted && s.deleted[id] {
				continue
			}
			pi, off := slot/g.rowsPer, slot%g.rowsPer
			if cur != pi {
				var err error
				if _, rows, err = s.cache.getTuplesAt(s.pool, s.epoch, g.pages[pi], g.width); err != nil {
					return err
				}
				cur = pi
			}
			row := empty
			if off < len(rows) {
				row = rows[off]
			} else if empty == nil {
				empty = make([]sheet.Value, g.width)
				row = empty
			}
			if !fn(id, row) {
				return nil
			}
		}
		return nil
	}
	// General path: one cursor per group that holds a requested column,
	// each carrying the (scratch slot, offset-in-group) pairs to copy per
	// tuple and caching its currently loaded block.
	type groupCopy struct {
		slot   int // index into the scratch row
		offset int // attribute offset within the group's tuples
	}
	type groupRead struct {
		gi     int
		copies []groupCopy
		pi     int
		rows   [][]sheet.Value
	}
	var reads []*groupRead
	byGroup := make(map[int]*groupRead)
	for j, c := range want {
		loc := s.colMap[c]
		gr, ok := byGroup[loc.group]
		if !ok {
			gr = &groupRead{gi: loc.group, pi: -1}
			byGroup[loc.group] = gr
			reads = append(reads, gr)
		}
		gr.copies = append(gr.copies, groupCopy{slot: j, offset: loc.offset})
	}
	scratch := make([]sheet.Value, len(want))
	for slot := lo; slot < hi; slot++ {
		id := RowID(slot + 1)
		if hasDeleted && s.deleted[id] {
			continue
		}
		for _, gr := range reads {
			g := &s.groups[gr.gi]
			pi, off := slot/g.rowsPer, slot%g.rowsPer
			if gr.pi != pi {
				_, rows, err := s.cache.getTuplesAt(s.pool, s.epoch, g.pages[pi], g.width)
				if err != nil {
					return err
				}
				gr.pi, gr.rows = pi, rows
			}
			if off >= len(gr.rows) {
				for _, cp := range gr.copies {
					scratch[cp.slot] = sheet.Empty()
				}
				continue
			}
			row := gr.rows[off]
			for _, cp := range gr.copies {
				scratch[cp.slot] = row[cp.offset]
			}
		}
		if !fn(id, scratch) {
			return nil
		}
	}
	return nil
}

// cloneZones copies a zone pointer slice; the pointed-to pageZones are
// immutable after construction, so sharing them is safe.
func cloneZones(zs []*pageZones) []*pageZones {
	if len(zs) == 0 {
		return nil
	}
	return append([]*pageZones(nil), zs...)
}

// cloneDeleted copies a tombstone set; nil and empty collapse to nil so the
// scan paths' hasDeleted check stays cheap.
func cloneDeleted(m map[RowID]bool) map[RowID]bool {
	if len(m) == 0 {
		return nil
	}
	out := make(map[RowID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

var _ Store = (*HybridStore)(nil)
