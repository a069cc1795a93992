package tablestore

import (
	"fmt"
	"sync"
)

// Zone-map catalog persistence. Zone summaries are derivable — any page
// rewrite recomputes them — but recomputing at open time would mean decoding
// every page of every table, exactly the cost skipping exists to avoid. So
// checkpoints carry a per-table zone blob and reopen reattaches it.
//
// Reattaching decodes nothing: the store keeps the payload until something
// first consults or changes a zone, so a cold open and a bare COUNT(*) cost
// nothing per page. The blob is strictly advisory: the decode validates
// shape against the store's page lists at attach and drops the whole
// payload on any mismatch, leaving the store with no summaries (= no
// skipping), never with wrong ones.

// zoneBlobTag leads every store's blob. It dates from when row and
// column stores wrote their own; it keeps the bytes of existing files valid.
const zoneBlobTag = 'h'

// appendZoneList serialises one page chain's summaries: count, then per page
// a presence byte and, when present, the column zones.
func appendZoneList(dst []byte, zs []*pageZones) []byte {
	dst = appendUvarint(dst, uint64(len(zs)))
	for _, pz := range zs {
		if pz == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(len(pz.cols)))
		for i := range pz.cols {
			dst = appendZone(dst, &pz.cols[i])
		}
	}
	return dst
}

// zoneList decodes one page chain's summaries, rejecting lists longer than
// the chain they describe.
func (d *valueDecoder) zoneList(nPages int) ([]*pageZones, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(nPages) {
		return nil, fmt.Errorf("tablestore: zone blob lists %d pages, group has %d", n, nPages)
	}
	if n == 0 {
		return nil, nil
	}
	zs := make([]*pageZones, n)
	for i := range zs {
		if d.pos >= len(d.buf) {
			return nil, fmt.Errorf("tablestore: truncated zone list at %d", d.pos)
		}
		present := d.buf[d.pos]
		d.pos++
		if present == 0 {
			continue
		}
		ncols, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// Each serialised zone is at least 2 flag bytes.
		if ncols > uint64(len(d.buf)-d.pos)/2 {
			return nil, fmt.Errorf("tablestore: implausible zone column count %d at %d", ncols, d.pos)
		}
		pz := &pageZones{cols: make([]ColZone, ncols)}
		for c := range pz.cols {
			z, err := d.zone()
			if err != nil {
				return nil, err
			}
			pz.cols[c] = z
		}
		zs[i] = pz
	}
	return zs, nil
}

// attachedZones is a zone payload attached at open and not yet adopted by a
// writer. Readers share the engine read lock and so never write store
// fields: the first consult decodes the payload into an immutable value
// published through once, which every snapshot holding this pointer reads.
// That is sound because a write adopts (and so decodes) first: no page can
// change between the attach and a snapshot that still holds the payload.
type attachedZones struct {
	payload []byte
	pages   []int // each group's page count at attach
	once    sync.Once
	groups  [][]*pageZones // nil when the payload does not decode
}

// zones returns group gi's zone list: the attached catalog, decoded on first
// use, while one is pending (a non-nil a), else the group's own list.
func (a *attachedZones) zones(groups []attrGroup, gi int) []*pageZones {
	if a == nil {
		return groups[gi].zones
	}
	a.once.Do(func() { a.groups = decodeZones(a.payload, a.pages) })
	if gi < len(a.groups) {
		return a.groups[gi]
	}
	return nil
}

// decodeZones decodes a store's tagged zone payload against its groups' page
// counts, or returns nil when it does not fit them.
func decodeZones(data []byte, pages []int) [][]*pageZones {
	d := &valueDecoder{buf: data, pos: 1}
	if n, err := d.uvarint(); err != nil || n != uint64(len(pages)) {
		return nil
	}
	out := make([][]*pageZones, len(pages))
	for gi, np := range pages {
		var err error
		if out[gi], err = d.zoneList(np); err != nil {
			return nil
		}
	}
	if d.pos != len(data) {
		return nil
	}
	return out
}

// adoptZones copies a pending attached catalog into the groups' own zone
// lists, which writers edit in place; the caller excludes readers.
func (s *HybridStore) adoptZones() {
	if s.attached == nil {
		return
	}
	for gi := range s.groups {
		s.groups[gi].zones = cloneZones(s.attached.zones(s.groups, gi))
	}
	s.attached = nil
}

// MarshalZones implements Store.
func (s *HybridStore) MarshalZones() []byte {
	dst := []byte{zoneBlobTag}
	dst = appendUvarint(dst, uint64(len(s.groups)))
	for gi := range s.groups {
		dst = appendZoneList(dst, s.attached.zones(s.groups, gi))
	}
	return dst
}

// AttachZones implements Store. It keeps data, undecoded, until first use.
func (s *HybridStore) AttachZones(data []byte) error {
	s.attached = nil
	pages := make([]int, len(s.groups))
	for gi := range s.groups {
		s.groups[gi].zones = nil
		pages[gi] = len(s.groups[gi].pages)
	}
	if len(data) == 0 || data[0] != zoneBlobTag {
		return fmt.Errorf("tablestore: zone blob lacks its 'h' tag")
	}
	s.attached = &attachedZones{payload: data, pages: pages}
	return nil
}
