package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Checkpoint root pages. A workbook file reserves its first two pages as a
// ping-pong pair of root slots. Each slot is a tiny, CRC-protected record
// naming the current checkpoint: a generation number, the WAL watermark the
// checkpoint covers, and the pages holding the page-catalog blob
// (sqlexec.MarshalPages), the sheet-snapshot blob (txn.EncodeRecords of the
// non-relational commands), and the two advisory blobs: the zone maps and
// the heap's slot map (pager.MarshalSlotMap).
//
// The pair is what makes checkpoints shadow-paged end to end: a checkpoint
// writes all of its content — relocated data pages, catalog blob, snapshot
// blob — to fresh pages, syncs, and only then writes the next root into ONE
// slot and syncs again. That single slot write is the commit point. A crash
// at any moment leaves at least one slot intact: before the flip the old
// root still names the old, untouched pages (plus the full WAL tail); a torn
// flip fails the new slot's CRC and recovery falls back to the other slot.
// After the flip commits, the new root is mirrored into the second slot so
// both name the current checkpoint and a later single-page corruption cannot
// silently resurrect a stale root.
const (
	rootSlotA pager.PageID = 1
	rootSlotB pager.PageID = 2

	// A root is the 52-byte record from before slot maps (CRC of [0:48] at
	// [48:52]), then mapPage and a CRC of [0:60]; without that tail it
	// decodes with no map and opens through the heap's header scan.
	rootRecordSizeV1 = 52
	rootRecordSize   = 64
)

var rootMagic = [8]byte{'D', 'S', 'R', 'O', 'O', 'T', '0', '1'}

// rootInfo is the decoded content of a root slot. The zero value (gen 0, no
// pages) is the state of a fresh workbook before its first checkpoint.
type rootInfo struct {
	gen       uint64
	watermark uint64       // WAL records with LSN <= watermark are inside the checkpoint
	metaPage  pager.PageID // page-catalog blob (0 = none)
	snapPage  pager.PageID // sheet-snapshot blob (0 = none)
	zonePage  pager.PageID // zone-map catalog blob (0 = none; advisory — see sqlexec.AttachZones)
	mapPage   pager.PageID // heap slot map (0 = none; advisory — see pager.FileStore.Attach)
}

// blobs lists the blob pages the root names, 0 for none.
func (r rootInfo) blobs() []pager.PageID {
	return []pager.PageID{r.metaPage, r.snapPage, r.zonePage, r.mapPage}
}

// reach lists every page the root references: both root slots, its blobs,
// and dataPages, the table and index pages of its catalog.
func (r rootInfo) reach(dataPages []pager.PageID) []pager.PageID {
	out := append([]pager.PageID{rootSlotA, rootSlotB}, r.blobs()...)
	return append(out, dataPages...)
}

// rootSlotFor returns the slot a given generation is written to; successive
// generations alternate so the previous root is never overwritten mid-flip.
func rootSlotFor(gen uint64) pager.PageID {
	if gen%2 == 1 {
		return rootSlotA
	}
	return rootSlotB
}

func encodeRoot(r rootInfo) []byte {
	buf := make([]byte, rootRecordSize)
	copy(buf[0:8], rootMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], r.gen)
	binary.LittleEndian.PutUint64(buf[16:24], r.watermark)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(r.metaPage))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(r.snapPage))
	binary.LittleEndian.PutUint64(buf[40:48], uint64(r.zonePage))
	binary.LittleEndian.PutUint32(buf[48:52], crc32.ChecksumIEEE(buf[0:48]))
	binary.LittleEndian.PutUint64(buf[52:60], uint64(r.mapPage))
	binary.LittleEndian.PutUint32(buf[60:64], crc32.ChecksumIEEE(buf[0:60]))
	return buf
}

func decodeRoot(buf []byte) (rootInfo, bool) {
	if len(buf) < rootRecordSizeV1 || [8]byte(buf[0:8]) != rootMagic {
		return rootInfo{}, false
	}
	if crc32.ChecksumIEEE(buf[0:48]) != binary.LittleEndian.Uint32(buf[48:52]) {
		return rootInfo{}, false
	}
	r := rootInfo{
		gen:       binary.LittleEndian.Uint64(buf[8:16]),
		watermark: binary.LittleEndian.Uint64(buf[16:24]),
		metaPage:  pager.PageID(binary.LittleEndian.Uint64(buf[24:32])),
		snapPage:  pager.PageID(binary.LittleEndian.Uint64(buf[32:40])),
		zonePage:  pager.PageID(binary.LittleEndian.Uint64(buf[40:48])),
	}
	if len(buf) >= rootRecordSize && crc32.ChecksumIEEE(buf[0:60]) == binary.LittleEndian.Uint32(buf[60:64]) {
		r.mapPage = pager.PageID(binary.LittleEndian.Uint64(buf[52:60]))
	}
	return r, true
}

// readRoot loads and validates one root slot; a missing page or failed CRC
// reports !ok rather than an error (the caller decides whether the sibling
// slot can serve). It works before the heap's slot states are attached.
func readRoot(be pager.Backend, slot pager.PageID) (rootInfo, bool) {
	buf, err := be.ReadPage(slot)
	if err != nil {
		return rootInfo{}, false
	}
	return decodeRoot(buf)
}

// dslint:critical
func writeRoot(be pager.Backend, slot pager.PageID, r rootInfo) error {
	if err := be.WritePage(slot, encodeRoot(r)); err != nil {
		return fmt.Errorf("core: write root slot %d: %w", slot, err)
	}
	return nil
}

// loadRoots reads both slots and returns the newest valid root. staleSlot
// names the sibling slot that does NOT hold a valid copy of that root (0
// when both slots agree) — the open path re-mirrors it, and only it: the
// slot holding the sole valid root is never rewritten in place, so a crash
// during the re-mirror can never tear the last good copy. fresh reports
// that neither slot held a valid root (a brand-new workbook file).
func loadRoots(be pager.Backend) (root rootInfo, staleSlot pager.PageID, fresh bool) {
	ra, okA := readRoot(be, rootSlotA)
	rb, okB := readRoot(be, rootSlotB)
	switch {
	case okA && okB && ra.gen == rb.gen:
		return ra, 0, false
	case okA && (!okB || ra.gen > rb.gen):
		return ra, rootSlotB, false
	case okB:
		return rb, rootSlotA, false
	default:
		return rootInfo{}, 0, true
	}
}
