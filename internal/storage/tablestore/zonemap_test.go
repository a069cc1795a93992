package tablestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

// valuesEqual compares two values bit-exactly: NaN equals NaN, -0 is
// distinguished from +0, and every other kind compares by payload.
func valuesEqual(a, b sheet.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sheet.KindNumber:
		return math.Float64bits(a.Num) == math.Float64bits(b.Num)
	case sheet.KindString:
		return a.Str == b.Str
	case sheet.KindBool:
		return a.Bool == b.Bool
	case sheet.KindError:
		return a.Err == b.Err
	}
	return true
}

// edgeValues is the pool of codec-hostile values: float specials, integral
// extremes around the delta-encoding cutoff, coercible and long strings.
func edgeValues() []sheet.Value {
	long := ""
	for i := 0; i < 40; i++ {
		long += "x"
	}
	return []sheet.Value{
		sheet.Empty(),
		sheet.Number(0),
		sheet.Number(math.Copysign(0, -1)),
		sheet.Number(1),
		sheet.Number(-5.5),
		sheet.Number(1e300),
		sheet.Number(math.NaN()),
		sheet.Number(math.Inf(1)),
		sheet.Number(math.Inf(-1)),
		sheet.Number(1 << 53),
		sheet.Number(-(1 << 53)),
		sheet.Number((1 << 53) - 1),
		sheet.String_(""),
		sheet.String_("abc"),
		sheet.String_("5"),
		sheet.String_("nan"),
		sheet.String_("ZEBRA"),
		sheet.String_(long),
		sheet.Bool_(true),
		sheet.Bool_(false),
		sheet.ErrorValue("#DIV/0!"),
	}
}

// TestTupleV2RoundTrip seals tuple pages of codec-hostile values and checks
// the dual-path decoder restores ids and every value bit-exactly.
func TestTupleV2RoundTrip(t *testing.T) {
	pool := edgeValues()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		width := 1 + rng.Intn(5)
		ids := make([]RowID, n)
		rows := make([][]sheet.Value, n)
		next := RowID(1 + rng.Intn(10))
		for i := range ids {
			ids[i] = next
			next += RowID(1 + rng.Intn(5))
			rows[i] = make([]sheet.Value, width)
			for c := range rows[i] {
				rows[i][c] = pool[rng.Intn(len(pool))]
			}
		}
		buf, pz := encodeTuplesV2(ids, rows, width)
		if len(pz.cols) != width {
			t.Fatalf("trial %d: %d zone columns, want %d", trial, len(pz.cols), width)
		}
		gotIDs, gotRows, err := decodeTuples(buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(gotIDs) != n {
			t.Fatalf("trial %d: %d rows back, want %d", trial, len(gotIDs), n)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] {
				t.Fatalf("trial %d row %d: id %d, want %d", trial, i, gotIDs[i], ids[i])
			}
			for c := 0; c < width; c++ {
				if !valuesEqual(gotRows[i][c], rows[i][c]) {
					t.Fatalf("trial %d row %d col %d: %v, want %v", trial, i, c, gotRows[i][c], rows[i][c])
				}
				if !pz.cols[c].covers(rows[i][c]) {
					t.Fatalf("trial %d row %d col %d: zone does not cover %v", trial, i, c, rows[i][c])
				}
			}
		}
	}
}

// TestTupleV2ShortRows: rows narrower than the page width must round-trip
// with Empty padding, and the padding must be covered by the zones.
func TestTupleV2ShortRows(t *testing.T) {
	ids := []RowID{3, 9}
	rows := [][]sheet.Value{
		{sheet.Number(1)},
		{sheet.Number(2), sheet.String_("b"), sheet.Number(3)},
	}
	buf, pz := encodeTuplesV2(ids, rows, 3)
	_, got, err := decodeTuples(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !valuesEqual(got[0][1], sheet.Empty()) || !valuesEqual(got[0][2], sheet.Empty()) {
		t.Fatalf("short row not Empty-padded: %v", got[0])
	}
	if !pz.cols[1].HasEmpty || !pz.cols[2].HasEmpty {
		t.Fatal("zone of a padded column must record HasEmpty")
	}
}

// TestColumnV2VectorEncodings drives each vector codec — delta (clustered
// integers, with and without NULL holes), dictionary (low-NDV text) and the
// plain fallback — through a full round trip.
func TestColumnV2VectorEncodings(t *testing.T) {
	cases := map[string][]sheet.Value{}

	clustered := make([]sheet.Value, valuesPerPage)
	for i := range clustered {
		clustered[i] = sheet.Number(float64(1000 + i))
	}
	cases["delta"] = clustered

	holes := append([]sheet.Value(nil), clustered...)
	for i := 0; i < len(holes); i += 7 {
		holes[i] = sheet.Empty()
	}
	cases["delta-with-nulls"] = holes

	dict := make([]sheet.Value, valuesPerPage)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := range dict {
		dict[i] = sheet.String_(words[i%len(words)])
	}
	cases["dict"] = dict

	mixed := make([]sheet.Value, 100)
	pool := edgeValues()
	for i := range mixed {
		mixed[i] = pool[i%len(pool)]
	}
	cases["plain"] = mixed

	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			buf, pz := encodeColumnV2(vals)
			got, err := decodeColumn(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vals) {
				t.Fatalf("%d values back, want %d", len(got), len(vals))
			}
			for i := range vals {
				if !valuesEqual(got[i], vals[i]) {
					t.Fatalf("value %d: %v, want %v", i, got[i], vals[i])
				}
				if !pz.cols[0].covers(vals[i]) {
					t.Fatalf("zone does not cover value %d (%v)", i, vals[i])
				}
			}
		})
	}

	// The compressed encodings must actually be smaller than the legacy
	// per-value codec for their target shapes.
	for _, name := range []string{"delta", "dict"} {
		v2, _ := encodeColumnV2(cases[name])
		legacy := legacyColumnPage(cases[name])
		if len(v2) >= len(legacy) {
			t.Errorf("%s page: v2 %d bytes >= legacy %d bytes", name, len(v2), len(legacy))
		}
	}
}

// legacyPage frames a payload the way the pre-DSZ2 codec sealed every page:
// a bare CRC32 with no magic.
func legacyPage(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// legacyColumnPage encodes vals as a pre-DSZ2 column page: a count, then each
// value in the standard appendValue form.
func legacyColumnPage(vals []sheet.Value) []byte {
	out := appendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		out = appendValue(out, v)
	}
	return legacyPage(out)
}

// legacyTuplePage encodes rows as a pre-DSZ2 tuple page: count and width,
// then each RowID followed by its values.
func legacyTuplePage(ids []RowID, rows [][]sheet.Value, width int) []byte {
	out := appendUvarint(nil, uint64(len(ids)))
	out = appendUvarint(out, uint64(width))
	for i := range ids {
		out = appendUvarint(out, uint64(ids[i]))
		for _, v := range rows[i] {
			out = appendValue(out, v)
		}
	}
	return legacyPage(out)
}

// TestLegacyPagesRefused: no file the engine opens can hold a pre-DSZ2 page,
// so the decoders refuse the bare-CRC framing as corrupt instead of decoding
// it; a zero-length (never-written) page still decodes as empty.
func TestLegacyPagesRefused(t *testing.T) {
	ids := []RowID{1, 2, 5}
	rows := [][]sheet.Value{
		{sheet.Number(1), sheet.String_("a")},
		{sheet.Number(2), sheet.Empty()},
		{sheet.Number(3), sheet.Bool_(true)},
	}
	if _, _, err := decodeTuples(legacyTuplePage(ids, rows, 2)); !errors.Is(err, ErrPageChecksum) {
		t.Fatalf("legacy tuple page: err = %v, want ErrPageChecksum", err)
	}
	vals := []sheet.Value{sheet.Number(7), sheet.String_("x")}
	if _, err := decodeColumn(legacyColumnPage(vals)); !errors.Is(err, ErrPageChecksum) {
		t.Fatalf("legacy column page: err = %v, want ErrPageChecksum", err)
	}
	if gotIDs, gotRows, err := decodeTuples([]byte{}); err != nil || gotIDs != nil || gotRows != nil {
		t.Fatalf("empty tuple page: %v %v %v", gotIDs, gotRows, err)
	}
	if got, err := decodeColumn([]byte{}); err != nil || got != nil {
		t.Fatalf("empty column page: %v %v", got, err)
	}
}

// TestV2RejectsCorruption: flipped bits anywhere in a sealed v2 page must
// fail the container check rather than decode silently wrong.
func TestV2RejectsCorruption(t *testing.T) {
	vals := make([]sheet.Value, 100)
	for i := range vals {
		vals[i] = sheet.Number(float64(i))
	}
	buf, _ := encodeColumnV2(vals)
	for pos := 0; pos < len(buf); pos += 3 {
		corrupt := append([]byte(nil), buf...)
		corrupt[pos] ^= 0x10
		got, err := decodeColumn(corrupt)
		if err != nil {
			continue
		}
		// A flip that still decodes must have produced the same values (the
		// flip landed in a byte the decoder ignores — there are none today,
		// but the invariant we need is only "never silently wrong").
		if len(got) != len(vals) {
			t.Fatalf("flip@%d: decoded %d values from corrupt page", pos, len(got))
		}
		for i := range vals {
			if !valuesEqual(got[i], vals[i]) {
				t.Fatalf("flip@%d: silently wrong value %d: %v", pos, i, got[i])
			}
		}
	}
}

// modelMatches replicates the executor's bound-predicate semantics
// (evalBoundPredicate + sheet.Value.Compare): NULL never matches, equality
// coerces via AsNumber (booleans as 0/1), range comparisons rank NaN equal to
// every number and strings/bools/errors above every number.
func modelMatches(v sheet.Value, op string, c float64) bool {
	if v.Kind == sheet.KindEmpty {
		return false
	}
	if op == "=" {
		var f float64
		switch v.Kind {
		case sheet.KindNumber:
			f = v.Num
		case sheet.KindBool:
			if v.Bool {
				f = 1
			}
		case sheet.KindString:
			var ok bool
			if f, ok = v.AsNumber(); !ok {
				return false
			}
		default:
			return false
		}
		return f == c
	}
	var cmp int
	switch {
	case v.Kind == sheet.KindNumber && math.IsNaN(v.Num):
		cmp = 0
	case v.Kind == sheet.KindNumber:
		switch {
		case v.Num < c:
			cmp = -1
		case v.Num > c:
			cmp = 1
		}
	default:
		cmp = 1 // strings, bools, errors rank above every number
	}
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// TestZoneSkipsSoundness is the core safety property: whenever a zone claims
// a page is skippable for a bound, no value the page stores may satisfy that
// bound under the engine's comparison semantics.
func TestZoneSkipsSoundness(t *testing.T) {
	pool := edgeValues()
	consts := []float64{-10, -5.5, math.Copysign(0, -1), 0, 0.5, 1, 2, 1e300, math.Inf(1), math.Inf(-1), 1 << 53}
	ops := []string{"=", "<", "<=", ">", ">="}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		vals := make([]sheet.Value, n)
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
		z := zoneOf(vals)
		for i := range vals {
			if !z.covers(vals[i]) {
				t.Fatalf("trial %d: zone does not cover %v", trial, vals[i])
			}
		}
		for _, op := range ops {
			for _, c := range consts {
				if !z.skips(op, c) {
					continue
				}
				for _, v := range vals {
					if modelMatches(v, op, c) {
						t.Fatalf("trial %d: zone skips %q %v but value %v matches (vals %v)",
							trial, op, c, v, vals)
					}
				}
			}
		}
		// An in-list bound skips only when every member would skip.
		b := ZoneBound{Op: "in", Vals: []float64{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}}
		if z.Skips(b) {
			for _, v := range vals {
				for _, c := range b.Vals {
					if modelMatches(v, "=", c) {
						t.Fatalf("trial %d: in-list skip dropped matching value %v = %v", trial, v, c)
					}
				}
			}
		}
	}
	// A NaN bound (col = 'nan') must never skip: string rows "nan" still
	// match by case-insensitive equality even though the coercion is NaN.
	z := zoneOf([]sheet.Value{sheet.String_("NaN")})
	if z.skips("=", math.NaN()) {
		t.Fatal("NaN bound skipped a page holding the string \"NaN\"")
	}
}

// TestIntervalMath pins the partition arithmetic the pruned scans are built
// on: skip-run construction, union, complement, splitting and page counting.
func TestIntervalMath(t *testing.T) {
	// Pages of 10 units over 95 total; pages 1, 2 and 6 skippable.
	skip := skipIntervalsFor(10, 10, 95, func(pi int) bool { return pi == 1 || pi == 2 || pi == 6 })
	want := []Partition{{Lo: 10, Hi: 30}, {Lo: 60, Hi: 70}}
	if fmt.Sprint(skip) != fmt.Sprint(want) {
		t.Fatalf("skipIntervalsFor = %v, want %v", skip, want)
	}
	u := unionParts(skip, []Partition{{Lo: 25, Hi: 40}, {Lo: 90, Hi: 95}})
	wantU := []Partition{{Lo: 10, Hi: 40}, {Lo: 60, Hi: 70}, {Lo: 90, Hi: 95}}
	if fmt.Sprint(u) != fmt.Sprint(wantU) {
		t.Fatalf("unionParts = %v, want %v", u, wantU)
	}
	kept := complementParts(95, u)
	wantK := []Partition{{Lo: 0, Hi: 10}, {Lo: 40, Hi: 60}, {Lo: 70, Hi: 90}}
	if fmt.Sprint(kept) != fmt.Sprint(wantK) {
		t.Fatalf("complementParts = %v, want %v", kept, wantK)
	}
	total := 0
	for _, p := range splitRuns(kept, 4) {
		if p.Hi <= p.Lo {
			t.Fatalf("splitRuns produced empty partition %v", p)
		}
		total += p.Hi - p.Lo
	}
	if total != 50 {
		t.Fatalf("splitRuns covers %d units, want 50", total)
	}
	// Kept runs touch pages 0, 4, 5, 7 and 8.
	if got := overlapCount(kept, 10, 10); got != 5 {
		t.Fatalf("overlapCount = %d, want 5", got)
	}
}
