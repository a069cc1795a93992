package tablestore

import "fmt"

// Zone-map catalog persistence. Zone summaries are derivable — any page
// rewrite recomputes them — but recomputing at open time would mean decoding
// every page of every table, exactly the cost skipping exists to avoid. So
// checkpoints carry a per-table zone blob and reopen reattaches it.
//
// The blob is strictly advisory: AttachZones validates shape against the
// store's page lists and rejects the whole payload on any mismatch, leaving
// the store with no summaries (= no skipping), never with wrong ones.

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
func (d *valueDecoder) zoneList(nPages int, what string) ([]*pageZones, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(nPages) {
		return nil, fmt.Errorf("tablestore: zone blob lists %d pages for %s, store has %d", n, what, nPages)
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

// MarshalZones implements Store.
func (s *HybridStore) MarshalZones() []byte {
	dst := []byte{zoneBlobTag}
	dst = appendUvarint(dst, uint64(len(s.groups)))
	for gi := range s.groups {
		dst = appendZoneList(dst, s.groups[gi].zones)
	}
	return dst
}

// AttachZones implements Store.
func (s *HybridStore) AttachZones(data []byte) error {
	for gi := range s.groups {
		s.groups[gi].zones = nil
	}
	if len(data) == 0 || data[0] != zoneBlobTag {
		return fmt.Errorf("tablestore: zone blob lacks its 'h' tag")
	}
	d := &valueDecoder{buf: data, pos: 1}
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	if n != uint64(len(s.groups)) {
		return fmt.Errorf("tablestore: zone blob has %d groups, store has %d", n, len(s.groups))
	}
	fresh := make([][]*pageZones, len(s.groups))
	for gi := range s.groups {
		if fresh[gi], err = d.zoneList(len(s.groups[gi].pages), fmt.Sprintf("group %d", gi)); err != nil {
			return err
		}
	}
	if d.pos != len(data) {
		return fmt.Errorf("tablestore: %d trailing bytes in hybrid zone blob", len(data)-d.pos)
	}
	for gi := range s.groups {
		s.groups[gi].zones = fresh[gi]
	}
	return nil
}
