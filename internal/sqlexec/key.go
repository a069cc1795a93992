package sqlexec

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strings"

	"github.com/dataspread/dataspread/internal/sheet"
)

// Typed join/group/distinct keys. The executor used to build hash keys with
// fmt.Fprintf into a strings.Builder, allocating a formatted string per row
// on every hash join, GROUP BY and DISTINCT. normValue is the comparable
// replacement: a normalized struct form of one sheet.Value, composed into
// flat arenas by keyIndex so composite keys never allocate per row.

// normValue is the normalized, comparable form of one sheet.Value used as a
// key component. Two values normalize identically exactly when the legacy
// string hashKey considered them equal.
type normValue struct {
	kind sheet.Kind
	num  float64
	str  string
}

// normKeyValue mirrors the legacy hashKey normalization (which itself
// mirrors sheet.Value.Equal): any value that coerces to a number and is not
// a string keys numerically — so 1, TRUE and the empty cell key as 1, 1 and
// 0 respectively — while strings key case-insensitively. NaN folds to a
// sentinel so all NaNs share one key (float comparison would keep every NaN
// distinct).
func normKeyValue(v sheet.Value) normValue {
	if f, ok := v.AsNumber(); ok && v.Kind != sheet.KindString {
		if math.IsNaN(f) {
			return normValue{kind: sheet.KindNumber, str: "NaN"}
		}
		return normValue{kind: sheet.KindNumber, num: f}
	}
	return normValue{kind: v.Kind, str: strings.ToLower(v.String())}
}

// normDistinctValue is the stricter normalization used by DISTINCT
// aggregates (COUNT(DISTINCT x), ...): values of different kinds never
// collide — matching the legacy "kind:lowered-string" dedup key — but
// numbers and booleans key on their numeric field to avoid formatting.
func normDistinctValue(v sheet.Value) normValue {
	switch v.Kind {
	case sheet.KindNumber:
		if math.IsNaN(v.Num) {
			return normValue{kind: sheet.KindNumber, str: "NaN"}
		}
		return normValue{kind: sheet.KindNumber, num: v.Num}
	case sheet.KindBool:
		if v.Bool {
			return normValue{kind: sheet.KindBool, num: 1}
		}
		return normValue{kind: sheet.KindBool}
	case sheet.KindString:
		return normValue{kind: sheet.KindString, str: strings.ToLower(v.Str)}
	case sheet.KindError:
		return normValue{kind: sheet.KindError, str: strings.ToLower(v.Err)}
	default:
		return normValue{kind: sheet.KindEmpty}
	}
}

// normalizeRowKey fills dst with the normalized key of the given columns of
// row (missing columns key as empty, as the legacy hashKey did).
func normalizeRowKey(dst []normValue, row []sheet.Value, cols []int) []normValue {
	dst = dst[:0]
	for _, c := range cols {
		v := sheet.Empty()
		if c < len(row) {
			v = row[c]
		}
		dst = append(dst, normKeyValue(v))
	}
	return dst
}

// keyIndex is a hash index over composite normalized keys. Key components
// live in one flat arena (arity values per slot), so inserting or probing a
// key allocates nothing beyond amortized arena growth. Slots are numbered in
// first-insertion order, which GROUP BY relies on for deterministic output.
type keyIndex struct {
	arity   int
	seed    maphash.Seed
	arena   []normValue
	rows    [][]int32 // per-slot build-side row lists (hash join)
	buckets map[uint64][]int32
}

func newKeyIndex(arity int) *keyIndex {
	return &keyIndex{
		arity:   arity,
		seed:    maphash.MakeSeed(),
		buckets: make(map[uint64][]int32),
	}
}

// hash folds the key into one maphash sum. Zero is written for the numeric
// field of ±0 so the two (equal under ==) always land in one bucket.
func (ix *keyIndex) hash(key []normValue) uint64 {
	var h maphash.Hash
	h.SetSeed(ix.seed)
	var buf [9]byte
	for _, k := range key {
		n := k.num
		if n == 0 {
			n = 0 // fold -0 into +0
		}
		buf[0] = byte(k.kind)
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(n))
		_, _ = h.Write(buf[:])
		_, _ = h.WriteString(k.str)
		_ = h.WriteByte(0xfe)
	}
	return h.Sum64()
}

func (ix *keyIndex) equalAt(slot int, key []normValue) bool {
	base := slot * ix.arity
	for i, k := range key {
		if ix.arena[base+i] != k {
			return false
		}
	}
	return true
}

// getOrAdd returns the slot holding key, adding a new slot when absent.
func (ix *keyIndex) getOrAdd(key []normValue) (slot int, added bool) {
	h := ix.hash(key)
	for _, si := range ix.buckets[h] {
		if ix.equalAt(int(si), key) {
			return int(si), false
		}
	}
	slot = len(ix.rows)
	ix.arena = append(ix.arena, key...)
	ix.rows = append(ix.rows, nil)
	ix.buckets[h] = append(ix.buckets[h], int32(slot))
	return slot, true
}

// lookup returns the slot holding key, or -1.
func (ix *keyIndex) lookup(key []normValue) int {
	h := ix.hash(key)
	for _, si := range ix.buckets[h] {
		if ix.equalAt(int(si), key) {
			return int(si)
		}
	}
	return -1
}

// addRow appends a build-side row index to a slot's match list.
func (ix *keyIndex) addRow(slot, row int) {
	ix.rows[slot] = append(ix.rows[slot], int32(row))
}

// matches returns the build-side rows recorded for a slot.
func (ix *keyIndex) matches(slot int) []int32 { return ix.rows[slot] }

// size returns the number of distinct keys inserted.
func (ix *keyIndex) size() int { return len(ix.rows) }

// valueArena hands out small []sheet.Value rows carved from chunked backing
// arrays, replacing one heap allocation per row on the scan and projection
// paths with one per few hundred rows. Chunks start at a few rows and double
// up to 256, so a point query pays for the rows it returns, not for a scan's
// chunk.
type valueArena struct {
	buf  []sheet.Value
	rows int // rows per chunk of the last allocation
}

// take returns a zeroed slice of n values.
func (a *valueArena) take(n int) []sheet.Value {
	if n == 0 {
		return nil
	}
	if len(a.buf) < n {
		a.rows = min(max(2*a.rows, 4), 256)
		a.buf = make([]sheet.Value, a.rows*n)
	}
	out := a.buf[:n:n]
	a.buf = a.buf[n:]
	return out
}

// clone copies row into arena-backed storage.
func (a *valueArena) clone(row []sheet.Value) []sheet.Value {
	out := a.take(len(row))
	copy(out, row)
	return out
}
