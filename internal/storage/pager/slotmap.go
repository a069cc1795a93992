package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/dataspread/dataspread/internal/dberr"
)

// The slot map: the FileStore's slot states as one checkpoint root sees
// them, so a reopen reads one blob instead of every slot header. A slot the
// root reaches is a head or a continuation with its link; the rest are free.
//
//	[0:8]   magic "DSSLOTM1"
//	[8:12]  CRC32 (IEEE) of everything after it
//	[12:]   uvarint high-water mark h, then one uvarint per slot 1..h-1:
//	        flags | link<<2, the link 0 for no next slot, else the
//	        zigzag-coded distance to it (one byte for most slots)

var slotMapMagic = [8]byte{'D', 'S', 'S', 'L', 'O', 'T', 'M', '1'}

const slotMapHeader = 12

// ErrCorruptSlotMap classes every slot map Attach refuses.
var ErrCorruptSlotMap = fmt.Errorf("pager: corrupt slot map: %w", dberr.ErrCorrupt)

// MarshalSlotMap serialises the slot states of head and the pages in live,
// with their chains; every other slot is free. head is the fresh, empty page
// the caller writes the map to: its continuation slots are reserved here, so
// the map describes its own chain and the WritePage that stores it allocates
// nothing.
func (fs *FileStore) MarshalSlotMap(head PageID, live []PageID) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ready(); err != nil {
		return nil, err
	}
	if !fs.isHead(head) || fs.slots[head].next != InvalidPage {
		return nil, fmt.Errorf("%w: %d is not a fresh page", ErrPageNotFound, head)
	}
	live = append(live[:len(live):len(live)], head)
	for last, n := head, 1; ; n++ {
		blob := fs.encodeSlotMap(live)
		if slotsFor(len(blob)) <= n {
			return blob, nil
		}
		// A reserved slot never shrinks the encoding and grows it by a few
		// bytes at most, so this settles in a round or two.
		c, err := fs.allocSlot(flagContinuation)
		if err != nil {
			return nil, err
		}
		fs.slots[last].next, last = c, c
	}
}

// encodeSlotMap encodes the states of the chains of live (caller holds mu).
func (fs *FileStore) encodeSlotMap(live []PageID) []byte {
	reached := fs.reach(live)
	buf := make([]byte, slotMapHeader, slotMapHeader+binary.MaxVarintLen64+int(fs.next))
	copy(buf, slotMapMagic[:])
	buf = binary.AppendUvarint(buf, uint64(fs.next))
	for id := PageID(1); id < fs.next; id++ {
		v := uint64(flagFree)
		if s := fs.slots[id]; reached[id] {
			var link uint64
			if s.next != InvalidPage {
				d := int64(s.next) - int64(id)
				link = uint64(d<<1) ^ uint64(d>>63)
			}
			v = uint64(s.flags) | link<<2
		}
		buf = binary.AppendUvarint(buf, v)
	}
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[slotMapHeader:]))
	return buf
}

// decodeSlotMap decodes a map for a file of slotCount slots into the states
// of slots 0..h-1 (slot 0, the file header, stays zero). It allocates at
// most 17 bytes per input byte: each entry takes at least one.
func decodeSlotMap(blob []byte, slotCount PageID) ([]slotState, error) {
	if len(blob) < slotMapHeader || [8]byte(blob[0:8]) != slotMapMagic ||
		crc32.ChecksumIEEE(blob[slotMapHeader:]) != binary.LittleEndian.Uint32(blob[8:12]) {
		return nil, fmt.Errorf("%w: bad magic or checksum", ErrCorruptSlotMap)
	}
	body := blob[slotMapHeader:]
	hwm, n := binary.Uvarint(body)
	if n <= 0 || hwm < 1 || hwm > uint64(slotCount) || hwm-1 > uint64(len(body)-n) {
		return nil, fmt.Errorf("%w: high-water mark %d for a file of %d slots", ErrCorruptSlotMap, hwm, slotCount)
	}
	body = body[n:]
	slots := make([]slotState, hwm)
	for id := PageID(1); id < PageID(hwm); id++ {
		v, n := binary.Uvarint(body)
		flags, link := byte(v&3), v>>2
		next := int64(id) + (int64(link>>1) ^ -int64(link&1))
		if n <= 0 || flags > flagFree || link != 0 && (flags == flagFree || next < 1 || next >= int64(hwm)) {
			return nil, fmt.Errorf("%w: bad entry for slot %d", ErrCorruptSlotMap, id)
		}
		body = body[n:]
		slots[id].flags = flags
		if link != 0 {
			slots[id].next = PageID(next)
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSlotMap, len(body))
	}
	// A link must reach a continuation no other link reaches: chains then
	// neither merge nor run into a head, and every walk from a head ends.
	linked := make([]bool, hwm)
	for id, s := range slots {
		if s.next != InvalidPage && (slots[s.next].flags != flagContinuation || linked[s.next]) {
			return nil, fmt.Errorf("%w: slot %d links to slot %d twice or to a non-continuation", ErrCorruptSlotMap, id, s.next)
		}
		linked[s.next] = true
	}
	return slots, nil
}
