package tablestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/dataspread/dataspread/internal/sheet"
)

// v2 page container: zone-mapped, optionally compressed tuple pages.
//
// Layout:
//
//	[0:4)  magic "DSZ2"
//	[4:8)  CRC32-IEEE (little-endian) over the body
//	[8:)   body
//
// Every page of every attribute group is written in this container; the
// decoder accepts nothing else (a zero-length, never-written page aside), so
// a page whose magic or checksum fails surfaces ErrPageChecksum.
//
// Tuple body:
//
//	uvarint count, uvarint width
//	count RowIDs as zigzag varint deltas (first absolute)
//	per column: ColZone, then a value vector
//
// A value vector is a tag byte plus one of three encodings, chosen per page
// at encode time:
//
//	vecPlain  each value in the standard appendValue form.
//	vecDelta  integral numerics (|v| <= 2^53, no NaN/Inf/-0) with Empty
//	          holes: presence bitmap, then zigzag varints — first present
//	          value absolute, the rest deltas. Clustered/sorted columns
//	          (ids, timestamps) shrink to a byte or two per row.
//	vecDict   strings with Empty holes and few distinct values: presence
//	          bitmap, entry table in first-seen order, one uvarint code per
//	          present value. Decoding shares one sheet.Value per entry, so
//	          predicate evaluation on low-NDV text compares against the
//	          interned entry values rather than per-row copies.

var zoneMagic = [4]byte{'D', 'S', 'Z', '2'}

const (
	vecPlain byte = 0
	vecDelta byte = 1
	vecDict  byte = 2
)

// maxDeltaInt bounds integral delta encoding to floats exact in int64.
const maxDeltaInt = 1 << 53

func sealPageV2(body []byte) []byte {
	out := make([]byte, 8, 8+len(body))
	copy(out, zoneMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// unsealPageV2 returns the body when buf is a valid v2 page.
func unsealPageV2(buf []byte) ([]byte, bool) {
	if len(buf) < 8 || [4]byte(buf[0:4]) != zoneMagic {
		return nil, false
	}
	body := buf[8:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, false
	}
	return body, true
}

func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func (d *valueDecoder) zigzag() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// --- zone serialisation ---

const (
	zfHasNum = 1 << iota
	zfHasCo
	zfHasStr
	zfHasBool
	zfHasErr
	zfHasEmpty
	zfHasNaN
)

const (
	zfMinTrunc = 1 << iota
	zfMaxTrunc
)

func appendFloat(dst []byte, f float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	return append(dst, b[:]...)
}

func appendZone(dst []byte, z *ColZone) []byte {
	var f1, f2 byte
	if z.HasNum {
		f1 |= zfHasNum
	}
	if z.HasCo {
		f1 |= zfHasCo
	}
	if z.HasStr {
		f1 |= zfHasStr
	}
	if z.HasBool {
		f1 |= zfHasBool
	}
	if z.HasErr {
		f1 |= zfHasErr
	}
	if z.HasEmpty {
		f1 |= zfHasEmpty
	}
	if z.HasNaN {
		f1 |= zfHasNaN
	}
	if z.MinTrunc {
		f2 |= zfMinTrunc
	}
	if z.MaxTrunc {
		f2 |= zfMaxTrunc
	}
	dst = append(dst, f1, f2)
	if z.HasNum {
		dst = appendFloat(dst, z.NumMin)
		dst = appendFloat(dst, z.NumMax)
	}
	if z.HasCo {
		dst = appendFloat(dst, z.CoMin)
		dst = appendFloat(dst, z.CoMax)
	}
	if z.HasStr {
		dst = appendUvarint(dst, uint64(len(z.StrMin)))
		dst = append(dst, z.StrMin...)
		dst = appendUvarint(dst, uint64(len(z.StrMax)))
		dst = append(dst, z.StrMax...)
	}
	return dst
}

func (d *valueDecoder) float() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, fmt.Errorf("tablestore: truncated float at %d", d.pos)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return f, nil
}

func (d *valueDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return "", fmt.Errorf("tablestore: truncated string at %d", d.pos)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *valueDecoder) zone() (ColZone, error) {
	var z ColZone
	if d.pos+2 > len(d.buf) {
		return z, fmt.Errorf("tablestore: truncated zone at %d", d.pos)
	}
	f1, f2 := d.buf[d.pos], d.buf[d.pos+1]
	d.pos += 2
	z.HasNum = f1&zfHasNum != 0
	z.HasCo = f1&zfHasCo != 0
	z.HasStr = f1&zfHasStr != 0
	z.HasBool = f1&zfHasBool != 0
	z.HasErr = f1&zfHasErr != 0
	z.HasEmpty = f1&zfHasEmpty != 0
	z.HasNaN = f1&zfHasNaN != 0
	z.MinTrunc = f2&zfMinTrunc != 0
	z.MaxTrunc = f2&zfMaxTrunc != 0
	var err error
	if z.HasNum {
		if z.NumMin, err = d.float(); err != nil {
			return z, err
		}
		if z.NumMax, err = d.float(); err != nil {
			return z, err
		}
	}
	if z.HasCo {
		if z.CoMin, err = d.float(); err != nil {
			return z, err
		}
		if z.CoMax, err = d.float(); err != nil {
			return z, err
		}
	}
	if z.HasStr {
		if z.StrMin, err = d.str(); err != nil {
			return z, err
		}
		if z.StrMax, err = d.str(); err != nil {
			return z, err
		}
	}
	return z, nil
}

// --- value vectors ---

// deltaInt reports whether v participates in integral delta encoding.
func deltaInt(v sheet.Value) (int64, bool) {
	if v.Kind != sheet.KindNumber {
		return 0, false
	}
	f := v.Num
	if math.IsNaN(f) || f != math.Trunc(f) || f < -maxDeltaInt || f > maxDeltaInt {
		return 0, false
	}
	if f == 0 && math.Signbit(f) {
		return 0, false // -0 would round-trip as +0
	}
	return int64(f), true
}

func appendPresence(dst []byte, vals []sheet.Value) []byte {
	nbytes := (len(vals) + 7) / 8
	start := len(dst)
	for i := 0; i < nbytes; i++ {
		dst = append(dst, 0)
	}
	for i, v := range vals {
		if v.Kind != sheet.KindEmpty {
			dst[start+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

func (d *valueDecoder) presence(count int) ([]byte, error) {
	nbytes := (count + 7) / 8
	if d.pos+nbytes > len(d.buf) {
		return nil, fmt.Errorf("tablestore: truncated presence bitmap at %d", d.pos)
	}
	bm := d.buf[d.pos : d.pos+nbytes]
	d.pos += nbytes
	return bm, nil
}

// appendVector chooses a per-page encoding and appends the tagged vector.
func appendVector(dst []byte, vals []sheet.Value) []byte {
	if body, ok := tryDeltaVector(vals); ok {
		dst = append(dst, vecDelta)
		return append(dst, body...)
	}
	if body, ok := tryDictVector(vals); ok {
		dst = append(dst, vecDict)
		return append(dst, body...)
	}
	dst = append(dst, vecPlain)
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

// tryDeltaVector encodes integral numerics (Empty holes allowed) as zigzag
// deltas; eligible only when every non-empty value is an exact integer.
func tryDeltaVector(vals []sheet.Value) ([]byte, bool) {
	present := 0
	for _, v := range vals {
		if v.Kind == sheet.KindEmpty {
			continue
		}
		if _, ok := deltaInt(v); !ok {
			return nil, false
		}
		present++
	}
	if present < 2 {
		return nil, false
	}
	out := appendPresence(nil, vals)
	prev, first := int64(0), true
	for _, v := range vals {
		if v.Kind == sheet.KindEmpty {
			continue
		}
		n, _ := deltaInt(v)
		if first {
			out, first = appendZigzag(out, n), false
		} else {
			out = appendZigzag(out, n-prev)
		}
		prev = n
	}
	return out, true
}

// tryDictVector dictionary-encodes low-NDV string columns (Empty holes
// allowed): an entry table in first-seen order plus one code per value.
func tryDictVector(vals []sheet.Value) ([]byte, bool) {
	present := 0
	for _, v := range vals {
		switch v.Kind {
		case sheet.KindEmpty:
		case sheet.KindString:
			present++
		default:
			return nil, false
		}
	}
	if present < 4 {
		return nil, false
	}
	codes := make([]uint64, 0, present)
	index := make(map[string]uint64, 8)
	var entries []string
	for _, v := range vals {
		if v.Kind == sheet.KindEmpty {
			continue
		}
		code, ok := index[v.Str]
		if !ok {
			code = uint64(len(entries))
			index[v.Str] = code
			entries = append(entries, v.Str)
			if len(entries)*2 > present {
				return nil, false // high NDV: dictionary would not pay
			}
		}
		codes = append(codes, code)
	}
	out := appendPresence(nil, vals)
	out = appendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = appendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	for _, c := range codes {
		out = appendUvarint(out, c)
	}
	return out, true
}

// vector decodes one tagged value vector of count values.
func (d *valueDecoder) vector(count int) ([]sheet.Value, error) {
	if d.pos >= len(d.buf) {
		return nil, fmt.Errorf("tablestore: truncated vector tag at %d", d.pos)
	}
	tag := d.buf[d.pos]
	d.pos++
	out := make([]sheet.Value, count)
	switch tag {
	case vecPlain:
		for i := range out {
			var err error
			if out[i], err = d.value(); err != nil {
				return nil, err
			}
		}
	case vecDelta:
		bm, err := d.presence(count)
		if err != nil {
			return nil, err
		}
		prev, first := int64(0), true
		for i := range out {
			if bm[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			delta, err := d.zigzag()
			if err != nil {
				return nil, err
			}
			if first {
				prev, first = delta, false
			} else {
				prev += delta
			}
			out[i] = sheet.Number(float64(prev))
		}
	case vecDict:
		bm, err := d.presence(count)
		if err != nil {
			return nil, err
		}
		ndv, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ndv > uint64(len(d.buf)-d.pos) {
			return nil, fmt.Errorf("tablestore: implausible dictionary size %d", ndv)
		}
		entries := make([]sheet.Value, ndv)
		for i := range entries {
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			entries[i] = sheet.String_(s)
		}
		for i := range out {
			if bm[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			code, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if code >= ndv {
				return nil, fmt.Errorf("tablestore: dictionary code %d out of range", code)
			}
			out[i] = entries[code]
		}
	default:
		return nil, fmt.Errorf("tablestore: unknown vector tag %d", tag)
	}
	return out, nil
}

// --- page encode/decode ---

// encodeTuplesV2 serialises a tuple page in the v2 container and returns the
// page's zone summary for the store's catalog.
func encodeTuplesV2(ids []RowID, rows [][]sheet.Value, width int) ([]byte, *pageZones) {
	body := appendUvarint(nil, uint64(len(ids)))
	body = appendUvarint(body, uint64(width))
	prev := int64(0)
	for _, id := range ids {
		body = appendZigzag(body, int64(id)-prev)
		prev = int64(id)
	}
	pz := zonesOfTuples(rows[:len(ids)], width)
	col := make([]sheet.Value, len(ids))
	for c := 0; c < width; c++ {
		for i := range col {
			if c < len(rows[i]) {
				col[i] = rows[i][c]
			} else {
				col[i] = sheet.Empty()
			}
		}
		body = appendZone(body, &pz.cols[c])
		body = appendVector(body, col)
	}
	return sealPageV2(body), pz
}

// decodeTuplesV2 reverses encodeTuplesV2 given a verified v2 body.
func decodeTuplesV2(body []byte) ([]RowID, [][]sheet.Value, error) {
	d := &valueDecoder{buf: body}
	n, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	width, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(body)) || width > uint64(len(body)) || n*width > uint64(len(body))*64 {
		return nil, nil, fmt.Errorf("tablestore: implausible tuple page header (%d x %d)", n, width)
	}
	ids := make([]RowID, n)
	prev := int64(0)
	for i := range ids {
		delta, err := d.zigzag()
		if err != nil {
			return nil, nil, err
		}
		prev += delta
		ids[i] = RowID(prev)
	}
	rows := make([][]sheet.Value, n)
	flat := make([]sheet.Value, int(n)*int(width))
	for i := range rows {
		rows[i] = flat[i*int(width) : (i+1)*int(width) : (i+1)*int(width)]
	}
	for c := 0; c < int(width); c++ {
		if _, err := d.zone(); err != nil {
			return nil, nil, err
		}
		col, err := d.vector(int(n))
		if err != nil {
			return nil, nil, err
		}
		for i := range rows {
			rows[i][c] = col[i]
		}
	}
	return ids, rows, nil
}
