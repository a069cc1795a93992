// Zone-map catalog persistence: the advisory half of a durable workbook.
//
// MarshalZones serialises every table's zone-map catalog (per-page column
// summaries) so a reopened workbook skips pages immediately instead of
// rebuilding summaries one page-rewrite at a time. Unlike the page catalog,
// the blob is strictly optional: AttachZones failing — torn write, checksum
// mismatch, shape drift — degrades to "no skipping" and is never an open
// error, because every summary is recomputed by the next rewrite of its page.
package sqlexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

var zonesMagic = [8]byte{'D', 'S', 'Z', 'N', 'C', 'A', 'T', '1'}

// ErrCorruptZones is returned when a zone-catalog blob fails its checksum or
// cannot be decoded. Callers treat it as "reopen without skipping", not as a
// recovery failure.
var ErrCorruptZones = errors.New("sqlexec: corrupt zone catalog")

// MarshalZones serialises the zone-map catalogs of every table, in the same
// deterministic table order as MarshalPages.
func (db *Database) MarshalZones() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	w := &pagesWriter{}
	tables := db.cat.List()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	w.uint(uint64(len(tables)))
	for _, tbl := range tables {
		w.str(tbl.Name)
		w.bytes(db.stores[tkey(tbl.Name)].MarshalZones())
	}

	out := make([]byte, 12, 12+len(w.buf))
	copy(out, zonesMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(w.buf))
	return append(out, w.buf...)
}

// AttachZones reattaches marshalled zone catalogs to the current stores.
// Validation is two-tier: the blob frame (magic, CRC, structure) here, and
// each store's shape check against its page lists when it first decodes its
// payload, which it keeps until then (blob must not change afterwards).
// Either failure disables skipping for the affected stores — never a wrong
// summary — and the database stays fully usable; only the first errors.
func (db *Database) AttachZones(blob []byte) error {
	if len(blob) < 12 || [8]byte(blob[0:8]) != zonesMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptZones)
	}
	body := blob[12:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[8:12]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorruptZones)
	}
	r := &pagesReader{buf: body}
	db.mu.Lock()
	defer db.mu.Unlock()
	n := r.count("zone table")
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str()
		payload := r.bytes()
		if r.err != nil {
			break
		}
		s, ok := db.stores[tkey(name)]
		if !ok {
			return fmt.Errorf("%w: zones for unknown table %q", ErrCorruptZones, name)
		}
		if err := s.AttachZones(payload); err != nil {
			return fmt.Errorf("%w: table %q: %v", ErrCorruptZones, name, err)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptZones, len(body)-r.pos)
	}
	return nil
}

// ValidateZones re-decodes every summarised page of every table and checks
// each zone summary covers the page's stored values — the invariant that
// makes skipping equivalence-safe. Fuzz and golden tests call it after churn.
func (db *Database) ValidateZones() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, s := range db.stores {
		if err := s.ValidateZones(); err != nil {
			return fmt.Errorf("sqlexec: table %q: %w", name, err)
		}
	}
	return nil
}
