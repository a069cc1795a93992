package tablestore

import (
	"math"
	"strings"

	"github.com/dataspread/dataspread/internal/sheet"
)

// Zone maps: per-page, per-column value summaries for data skipping.
//
// Every sealed v2 tuple page carries one ColZone per stored column,
// computed by the codec at encode time. The stores mirror those summaries in
// an in-memory catalog parallel to their page lists (rebuilt on every page
// write, persisted in the checkpoint zone blob), and the scan paths consult
// them against the executor's pushed sargable conjuncts: a page whose zone
// proves that NO row can satisfy a conjunct is dropped without being paged in
// or decoded.
//
// Correctness rests on the engine's comparison semantics (sheet.Value):
//
//   - NULL (KindEmpty) never satisfies any comparison — evalBoundPredicate
//     treats NULL as false — so empty values never block a skip, and slots
//     beyond a page's stored values (which scan as Empty) are skippable for
//     free.
//   - Equality coerces across kinds through AsNumber: the string "5", the
//     boolean TRUE and the number 1 all equal numeric constants. ColZone
//     therefore tracks a separate coercion range [CoMin, CoMax] over every
//     value that AsNumber accepts, and `=` skips only outside that range.
//   - Range comparisons use Value.Compare, which ranks every string, bool
//     and error ABOVE every number without coercing. A page holding any such
//     value can always satisfy `>`/`>=` against a numeric constant, so those
//     skips require the kind flags to be clear.
//   - NaN compares equal to every number under Value.Compare (neither less
//     nor greater), so a NaN satisfies `<=` and `>=` against any constant:
//     HasNaN blocks those skips. A NaN-valued bound (e.g. `col = 'nan'`,
//     whose sarg coerces to NaN while string rows "nan" still match by
//     case-insensitive equality) never skips at all.
//
// Summaries are exact at encode time and recomputed wholesale on every page
// rewrite — the mutation paths all decode-modify-reencode a full page, so a
// zone can never understate its page (the stale-skip hazard). Tombstone
// deletes never touch the page: the zone stays a valid superset of the
// surviving rows, and skipping remains sound (it can only drop rows that
// would not have matched).

// zoneStrPrefix is the stored length of text min/max prefixes.
const zoneStrPrefix = 16

// ZoneBound is one sargable conjunct handed to the pruning layer: column
// <op> numeric constant, or column IN a numeric list (op "in", constants in
// Vals). Col is the physical table column index. Bounds mirror the
// executor's sarg extraction, which only produces them for NUMBER-declared
// columns with numeric (or numerically coerced) constants.
type ZoneBound struct {
	Col  int
	Op   string // "=", "<", "<=", ">", ">=", "in"
	Val  float64
	Vals []float64
}

// ColZone summarises every value one page stores for one column.
type ColZone struct {
	// HasNum with [NumMin, NumMax] covers the non-NaN numeric values.
	HasNum         bool
	NumMin, NumMax float64
	// HasCo with [CoMin, CoMax] covers the AsNumber coercions that equality
	// can match: non-NaN numbers, booleans as 0/1, and numeric-parsing
	// strings (excluding NaN parses — NaN equals nothing).
	HasCo        bool
	CoMin, CoMax float64
	// HasStr with [StrMin, StrMax] bounds the case-folded prefixes
	// (zoneStrPrefix bytes) of the stored strings; the Trunc flags record
	// that the extreme entry was cut. Text sargs do not exist yet (text
	// columns are not sargable), so these prefixes are carried for a future
	// collation-aware skip path and checked by the fuzz suite, but never
	// consulted for skipping.
	HasStr             bool
	StrMin, StrMax     string
	MinTrunc, MaxTrunc bool
	// Kind flags for the rank-based comparison rules above.
	HasBool, HasErr, HasEmpty, HasNaN bool
}

// add widens the zone to cover one value.
func (z *ColZone) add(v sheet.Value) {
	switch v.Kind {
	case sheet.KindEmpty:
		z.HasEmpty = true
	case sheet.KindNumber:
		if math.IsNaN(v.Num) {
			z.HasNaN = true
			return
		}
		if !z.HasNum {
			z.HasNum, z.NumMin, z.NumMax = true, v.Num, v.Num
		} else {
			z.NumMin = math.Min(z.NumMin, v.Num)
			z.NumMax = math.Max(z.NumMax, v.Num)
		}
		z.addCo(v.Num)
	case sheet.KindString:
		z.addStr(v.Str)
		z.HasStr = true
		if f, ok := v.AsNumber(); ok && !math.IsNaN(f) {
			z.addCo(f)
		}
	case sheet.KindBool:
		z.HasBool = true
		if v.Bool {
			z.addCo(1)
		} else {
			z.addCo(0)
		}
	case sheet.KindError:
		z.HasErr = true
	}
}

func (z *ColZone) addCo(f float64) {
	if !z.HasCo {
		z.HasCo, z.CoMin, z.CoMax = true, f, f
		return
	}
	z.CoMin = math.Min(z.CoMin, f)
	z.CoMax = math.Max(z.CoMax, f)
}

func (z *ColZone) addStr(s string) {
	p := strings.ToLower(s)
	trunc := false
	if len(p) > zoneStrPrefix {
		p, trunc = p[:zoneStrPrefix], true
	}
	if !z.HasStr {
		z.StrMin, z.StrMax = p, p
		z.MinTrunc, z.MaxTrunc = trunc, trunc
		return
	}
	if p < z.StrMin {
		z.StrMin, z.MinTrunc = p, trunc
	}
	if p > z.StrMax {
		z.StrMax, z.MaxTrunc = p, trunc
	}
}

// covers reports whether the zone accounts for v — the invariant the fuzz
// suite asserts for every stored value of every summarised page.
func (z *ColZone) covers(v sheet.Value) bool {
	switch v.Kind {
	case sheet.KindEmpty:
		return z.HasEmpty
	case sheet.KindNumber:
		if math.IsNaN(v.Num) {
			return z.HasNaN
		}
		return z.HasNum && v.Num >= z.NumMin && v.Num <= z.NumMax &&
			z.HasCo && v.Num >= z.CoMin && v.Num <= z.CoMax
	case sheet.KindString:
		if !z.HasStr {
			return false
		}
		p := strings.ToLower(v.Str)
		if len(p) > zoneStrPrefix {
			p = p[:zoneStrPrefix]
		}
		if p < z.StrMin || p > z.StrMax {
			return false
		}
		if f, ok := v.AsNumber(); ok && !math.IsNaN(f) {
			return z.HasCo && f >= z.CoMin && f <= z.CoMax
		}
		return true
	case sheet.KindBool:
		f := 0.0
		if v.Bool {
			f = 1
		}
		return z.HasBool && z.HasCo && f >= z.CoMin && f <= z.CoMax
	case sheet.KindError:
		return z.HasErr
	}
	return false
}

// skips reports whether no value the zone covers can satisfy `col <op> c`.
func (z *ColZone) skips(op string, c float64) bool {
	if math.IsNaN(c) {
		// A NaN bound reaches here only through equality against a string
		// like 'nan', which still matches string rows case-insensitively.
		return false
	}
	switch op {
	case "=":
		return !z.HasCo || c < z.CoMin || c > z.CoMax
	case "<":
		return !z.HasNum || z.NumMin >= c
	case "<=":
		if z.HasNaN {
			return false
		}
		return !z.HasNum || z.NumMin > c
	case ">":
		if z.HasStr || z.HasBool || z.HasErr {
			return false
		}
		return !z.HasNum || z.NumMax <= c
	case ">=":
		if z.HasStr || z.HasBool || z.HasErr || z.HasNaN {
			return false
		}
		return !z.HasNum || z.NumMax < c
	}
	return false
}

// Skips reports whether the bound proves no row of the page can match.
func (z *ColZone) Skips(b ZoneBound) bool {
	if z == nil {
		return false
	}
	if b.Op == "in" {
		if len(b.Vals) == 0 {
			return false
		}
		for _, v := range b.Vals {
			if !z.skips("=", v) {
				return false
			}
		}
		return true
	}
	return z.skips(b.Op, b.Val)
}

// pageZones is one page's summary: one ColZone per attribute of the page's
// group, by offset within the group. Instances are immutable after construction — writers
// replace whole pointers in the catalogs, so snapshots can share them by
// copying the pointer slices.
type pageZones struct {
	cols []ColZone
}

// zonesOfTuples summarises a tuple page column by column.
func zonesOfTuples(rows [][]sheet.Value, width int) *pageZones {
	pz := &pageZones{cols: make([]ColZone, width)}
	for _, row := range rows {
		for c := 0; c < width; c++ {
			if c < len(row) {
				pz.cols[c].add(row[c])
			} else {
				pz.cols[c].add(sheet.Empty())
			}
		}
	}
	return pz
}

// setZone records a page's summary at index pi, growing the catalog to fit.
// Catalog slices stay parallel to their page lists; a nil entry means
// "unknown — never skip".
func setZone(zones []*pageZones, pi int, pz *pageZones) []*pageZones {
	for len(zones) <= pi {
		zones = append(zones, nil)
	}
	zones[pi] = pz
	return zones
}

// --- interval arithmetic over Partition runs ---
//
// Pruning works in slot space: each bound yields merged skippable
// intervals at its own page granularity, the intervals union across bounds,
// and the complement is the list of kept runs a pruned scan visits.

// skipIntervalsFor walks page indexes [0, nPages) covering `per` units each,
// clipped to [0, total), and returns the merged intervals of units whose
// pages the callback marks skippable.
func skipIntervalsFor(nPages, per, total int, skip func(pi int) bool) []Partition {
	var out []Partition
	for pi := 0; pi < nPages && pi*per < total; pi++ {
		if !skip(pi) {
			continue
		}
		lo, hi := pi*per, (pi+1)*per
		if hi > total {
			hi = total
		}
		if n := len(out); n > 0 && out[n-1].Hi == lo {
			out[n-1].Hi = hi
		} else {
			out = append(out, Partition{Lo: lo, Hi: hi})
		}
	}
	return out
}

// unionParts merges two sorted, disjoint interval lists into their sorted,
// disjoint union.
func unionParts(a, b []Partition) []Partition {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Partition, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next Partition
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(out); n > 0 && next.Lo <= out[n-1].Hi {
			if next.Hi > out[n-1].Hi {
				out[n-1].Hi = next.Hi
			}
			continue
		}
		out = append(out, next)
	}
	return out
}

// complementParts returns the kept runs of [0, total) once the sorted,
// disjoint skip intervals are removed.
func complementParts(total int, skip []Partition) []Partition {
	if total <= 0 {
		return nil
	}
	var out []Partition
	lo := 0
	for _, p := range skip {
		if p.Lo > lo {
			out = append(out, Partition{Lo: lo, Hi: p.Lo})
		}
		if p.Hi > lo {
			lo = p.Hi
		}
	}
	if lo < total {
		out = append(out, Partition{Lo: lo, Hi: total})
	}
	return out
}

// splitRuns chops kept runs into roughly n same-sized partitions for morsel
// distribution. Partitions never span a skipped gap, so a few more than n
// pieces can result; the morsel cursor handles any count.
func splitRuns(runs []Partition, n int) []Partition {
	total := 0
	for _, r := range runs {
		total += r.Hi - r.Lo
	}
	if total == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	target := (total + n - 1) / n
	out := make([]Partition, 0, n+len(runs))
	for _, r := range runs {
		for lo := r.Lo; lo < r.Hi; lo += target {
			hi := lo + target
			if hi > r.Hi {
				hi = r.Hi
			}
			out = append(out, Partition{Lo: lo, Hi: hi})
		}
	}
	return out
}

// overlapCount reports how many page indexes in [0, nPages), each covering
// `per` units, intersect the sorted kept runs.
func overlapCount(runs []Partition, per, nPages int) int {
	count, last := 0, -1
	for _, r := range runs {
		if r.Hi <= r.Lo {
			continue
		}
		lo, hi := r.Lo/per, (r.Hi-1)/per
		if hi >= nPages {
			hi = nPages - 1
		}
		if lo <= last {
			lo = last + 1
		}
		if hi >= lo {
			count += hi - lo + 1
			last = hi
		}
	}
	return count
}
