package tablestore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Store metadata persistence. A store's pages hold the tuples; its *meta* —
// page lists, row directory, counters, tombstones — lived only in memory
// until PR 4, which is why a reopened workbook had to rebuild tables by
// replaying DML history. MarshalMeta serialises that state compactly (page
// ids resolved through the BufferPool's forward map to their physical
// backend ids) and OpenStore reattaches a store to existing pages in
// O(meta), not O(history).
//
// Encodings are uvarint-based, one self-describing blob per store, led by a
// version byte so the format can evolve.

const hybridMetaVersion = 1

type metaWriter struct{ buf []byte }

func (w *metaWriter) uint(v uint64) { w.buf = appendUvarint(w.buf, v) }
func (w *metaWriter) pages(pool *pager.BufferPool, ids []pager.PageID) {
	w.uint(uint64(len(ids)))
	for _, id := range ids {
		w.uint(uint64(pool.Resolve(id)))
	}
}

type metaReader struct {
	buf []byte
	pos int
	err error
}

func (r *metaReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("tablestore: corrupt store meta at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *metaReader) count(what string) (int, bool) {
	n := r.uint()
	if r.err != nil {
		return 0, false
	}
	// A count can never exceed the remaining bytes (every element is at
	// least one byte); reject it before allocating.
	if n > uint64(len(r.buf)-r.pos) {
		r.err = fmt.Errorf("tablestore: implausible %s count %d in store meta", what, n)
		return 0, false
	}
	return int(n), true
}

func (r *metaReader) pageList() []pager.PageID {
	n, ok := r.count("page")
	if !ok {
		return nil
	}
	out := make([]pager.PageID, n)
	for i := range out {
		out[i] = pager.PageID(r.uint())
	}
	return out
}

func sortedRowIDs(m map[RowID]bool) []RowID {
	out := make([]RowID, 0, len(m))
	for id, dead := range m {
		if dead {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalMeta implements Store.
func (s *HybridStore) MarshalMeta() []byte {
	w := &metaWriter{}
	w.uint(hybridMetaVersion)
	w.uint(uint64(s.groupSize))
	w.uint(uint64(s.slotCount))
	w.uint(uint64(s.nextID))
	w.uint(uint64(s.rowCount))
	w.uint(uint64(len(s.groups)))
	for _, g := range s.groups {
		w.uint(uint64(g.width))
		w.uint(uint64(g.rowsPer))
		w.pages(s.pool, g.pages)
	}
	w.uint(uint64(len(s.colMap)))
	for _, loc := range s.colMap {
		w.uint(uint64(loc.group))
		w.uint(uint64(loc.offset))
	}
	dead := sortedRowIDs(s.deleted)
	w.uint(uint64(len(dead)))
	for _, id := range dead {
		w.uint(uint64(id))
	}
	return w.buf
}

// OpenHybridStore attaches a HybridStore to the pages its marshalled meta
// references. The pool must sit on the backend that owns those pages.
func OpenHybridStore(pool *pager.BufferPool, meta []byte) (*HybridStore, error) {
	r := &metaReader{buf: meta}
	if v := r.uint(); r.err == nil && v != hybridMetaVersion {
		return nil, fmt.Errorf("tablestore: unsupported hybrid meta version %d", v)
	}
	s := &HybridStore{pool: pool, deleted: make(map[RowID]bool)}
	s.groupSize = int(r.uint())
	s.slotCount = int(r.uint())
	s.nextID = RowID(r.uint())
	s.rowCount = int(r.uint())
	ngroups, ok := r.count("group")
	if !ok {
		return nil, r.err
	}
	s.groups = make([]attrGroup, ngroups)
	for i := range s.groups {
		g := &s.groups[i]
		g.width, g.rowsPer, g.pages = int(r.uint()), int(r.uint()), r.pageList()
		// A live group's pages hold every slot, at most a page of values each.
		if r.err == nil && g.width > 0 && (uint(g.rowsPer-1) >= valuesPerPage || uint(len(g.pages)*g.rowsPer) < uint(s.slotCount)) {
			return nil, fmt.Errorf("tablestore: group %d has invalid rowsPer or too few pages", i)
		}
	}
	ncols, ok := r.count("column-map")
	if !ok {
		return nil, r.err
	}
	s.colMap = make([]colLocation, ncols)
	for i := range s.colMap {
		s.colMap[i].group = int(r.uint())
		s.colMap[i].offset = int(r.uint())
		if loc := s.colMap[i]; r.err == nil && (uint(loc.group) >= uint(len(s.groups)) || uint(loc.offset) >= uint(s.groups[loc.group].width)) {
			return nil, fmt.Errorf("tablestore: column %d maps to missing group %d or offset %d", i, loc.group, loc.offset)
		}
	}
	ndead, ok := r.count("tombstone")
	if !ok {
		return nil, r.err
	}
	for i := 0; i < ndead; i++ {
		s.deleted[RowID(r.uint())] = true
	}
	if r.err == nil && (s.slotCount < 0 || s.nextID != RowID(s.slotCount)+1 || s.rowCount != s.slotCount-len(s.deleted)) {
		return nil, fmt.Errorf("tablestore: store meta counts disagree: %d slots, next id %d, %d rows, %d tombstones", s.slotCount, s.nextID, s.rowCount, len(s.deleted))
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// AppendPages implements Store.
func (s *HybridStore) AppendPages(dst []pager.PageID) []pager.PageID {
	for _, g := range s.groups {
		dst = append(dst, g.pages...)
	}
	return dst
}
