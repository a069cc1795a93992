package tablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/dataspread/dataspread/internal/sheet"
)

// ErrPageChecksum is returned when a data page fails its CRC: the page file
// was corrupted outside the engine (media bit flip, partial write). Scans and
// point reads surface it instead of silently decoding garbage rows.
var ErrPageChecksum = errors.New("tablestore: page checksum mismatch (corrupt page)")

// Tuple and value serialisation shared by the physical layouts. Values are
// the unified sheet.Value dynamic type: DataSpread types relational columns
// from observed values (paper §2.2 "Data typing"), so the storage layer keeps
// the dynamic representation and the catalog layer enforces/infers column
// types.

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func appendValue(dst []byte, v sheet.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case sheet.KindNumber:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Num))
		dst = append(dst, b[:]...)
	case sheet.KindString:
		dst = appendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	case sheet.KindBool:
		if v.Bool {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case sheet.KindError:
		dst = appendUvarint(dst, uint64(len(v.Err)))
		dst = append(dst, v.Err...)
	}
	return dst
}

type valueDecoder struct {
	buf []byte
	pos int
}

func (d *valueDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tablestore: corrupt varint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *valueDecoder) value() (sheet.Value, error) {
	if d.pos >= len(d.buf) {
		return sheet.Value{}, fmt.Errorf("tablestore: truncated value at %d", d.pos)
	}
	kind := sheet.Kind(d.buf[d.pos])
	d.pos++
	v := sheet.Value{Kind: kind}
	switch kind {
	case sheet.KindEmpty:
	case sheet.KindNumber:
		if d.pos+8 > len(d.buf) {
			return v, fmt.Errorf("tablestore: truncated number at %d", d.pos)
		}
		v.Num = math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.pos:]))
		d.pos += 8
	case sheet.KindString, sheet.KindError:
		n, err := d.uvarint()
		if err != nil {
			return v, err
		}
		if d.pos+int(n) > len(d.buf) {
			return v, fmt.Errorf("tablestore: truncated string at %d", d.pos)
		}
		s := string(d.buf[d.pos : d.pos+int(n)])
		d.pos += int(n)
		if kind == sheet.KindString {
			v.Str = s
		} else {
			v.Err = s
		}
	case sheet.KindBool:
		if d.pos >= len(d.buf) {
			return v, fmt.Errorf("tablestore: truncated bool at %d", d.pos)
		}
		v.Bool = d.buf[d.pos] != 0
		d.pos++
	default:
		return v, fmt.Errorf("tablestore: unknown value kind %d", kind)
	}
	return v, nil
}

// decodeTuples verifies a tuple page's DSZ2 container and decodes it. A
// zero-length buffer is a freshly allocated, never-written page and decodes
// as empty; anything else that is not a valid container — a corrupted page
// or one in a pre-DSZ2 format — is ErrPageChecksum.
func decodeTuples(buf []byte) (ids []RowID, rows [][]sheet.Value, err error) {
	if len(buf) == 0 {
		return nil, nil, nil
	}
	body, ok := unsealPageV2(buf)
	if !ok {
		return nil, nil, ErrPageChecksum
	}
	return decodeTuplesV2(body)
}

// decodeColumn verifies a column page's DSZ2 container and decodes it (see
// decodeTuples).
func decodeColumn(buf []byte) ([]sheet.Value, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	body, ok := unsealPageV2(buf)
	if !ok {
		return nil, ErrPageChecksum
	}
	return decodeColumnV2(body)
}

// cloneRow copies a tuple so callers cannot alias stored data.
func cloneRow(row []sheet.Value) []sheet.Value {
	out := make([]sheet.Value, len(row))
	copy(out, row)
	return out
}

// AppendValue appends the storage encoding of one value. The durability
// layer reuses the codec for catalog metadata (column defaults, index keys)
// so every persisted value round-trips through a single format.
func AppendValue(dst []byte, v sheet.Value) []byte { return appendValue(dst, v) }

// ReadValue decodes one value from the front of buf and returns the rest.
func ReadValue(buf []byte) (sheet.Value, []byte, error) {
	d := &valueDecoder{buf: buf}
	v, err := d.value()
	if err != nil {
		return sheet.Value{}, nil, err
	}
	return v, buf[d.pos:], nil
}
