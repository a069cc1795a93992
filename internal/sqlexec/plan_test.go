package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// --- prepared-plan cache ---

func TestPlanCacheHitsAndReuse(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	base := db.PlanCacheStats()
	const q = "SELECT a FROM t WHERE a > 0"
	for i := 0; i < 5; i++ {
		mustExec(t, s, q)
	}
	st := db.PlanCacheStats()
	if st.Hits-base.Hits < 4 {
		t.Fatalf("expected >=4 plan cache hits, got %d (stats %+v)", st.Hits-base.Hits, st)
	}
	if st.Size == 0 {
		t.Fatal("plan cache is empty after repeated queries")
	}
}

// TestPlanCacheInvalidatedOnDDL proves a cached plan never reads a stale
// schema: the same SQL text is re-planned after CREATE/ALTER/DROP and
// observes the new table shape.
func TestPlanCacheInvalidatedOnDDL(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 2)")
	const q = "SELECT * FROM t"
	res := mustExec(t, s, q)
	if len(res.Columns) != 2 || res.Columns[0] != "a" {
		t.Fatalf("before DDL: columns %v", res.Columns)
	}

	// ALTER: the cached SELECT * must see the added column.
	mustExec(t, s, "ALTER TABLE t ADD COLUMN c INT DEFAULT 9")
	res = mustExec(t, s, q)
	if len(res.Columns) != 3 || res.Columns[2] != "c" {
		t.Fatalf("after ADD COLUMN: columns %v", res.Columns)
	}
	if got := res.Rows[0][2]; !got.Equal(sheet.Number(9)) {
		t.Fatalf("after ADD COLUMN: backfill %v", got)
	}

	// DROP + CREATE with swapped column order: the cached plan must bind
	// against the new positions, not the old ones.
	mustExec(t, s, "DROP TABLE t")
	mustExec(t, s, "CREATE TABLE t (b TEXT, a TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES ('bee', 'ay')")
	res = mustExec(t, s, q)
	if len(res.Columns) != 2 || res.Columns[0] != "b" || res.Columns[1] != "a" {
		t.Fatalf("after recreate: columns %v", res.Columns)
	}
	if !res.Rows[0][0].Equal(sheet.String_("bee")) || !res.Rows[0][1].Equal(sheet.String_("ay")) {
		t.Fatalf("after recreate: row %v", res.Rows[0])
	}

	// A projection that no longer resolves must fail, not read stale slots.
	mustExec(t, s, "SELECT a FROM t") // still fine: a exists
	mustExec(t, s, "DROP TABLE t")
	mustExec(t, s, "CREATE TABLE t (z INT)")
	if _, err := s.Query("SELECT a FROM t"); err == nil {
		t.Fatal("SELECT of dropped column should fail after re-CREATE")
	}
}

// --- predicate pushdown semantics ---

func TestPushdownPreservesLeftJoinSemantics(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE l (id INT, v INT)")
	mustExec(t, s, "CREATE TABLE r (id INT, w INT)")
	mustExec(t, s, "INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, s, "INSERT INTO r VALUES (1, 100), (3, 300)")

	// Predicate on the nullable (right) side must apply after the join:
	// unmatched left rows have NULL w, and NULL comparisons drop them.
	res := mustExec(t, s, "SELECT id, w FROM l LEFT JOIN r USING (id) WHERE w > 99")
	if len(res.Rows) != 2 {
		t.Fatalf("right-side predicate over LEFT JOIN: got %d rows, want 2", len(res.Rows))
	}
	// Predicate on the preserved (left) side pushes below the join and
	// must keep the NULL-extended row for id=2.
	res = mustExec(t, s, "SELECT id, w FROM l LEFT JOIN r USING (id) WHERE v >= 20")
	if len(res.Rows) != 2 {
		t.Fatalf("left-side predicate over LEFT JOIN: got %d rows, want 2", len(res.Rows))
	}
	foundNull := false
	for _, row := range res.Rows {
		if row[0].Equal(sheet.Number(2)) && row[1].IsEmpty() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatalf("NULL-extended row for id=2 missing: %v", res.Rows)
	}
}

func TestConstantWhereConjuncts(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2)")
	if res := mustExec(t, s, "SELECT a FROM t WHERE 1 = 2"); len(res.Rows) != 0 {
		t.Fatalf("constant-false WHERE returned %d rows", len(res.Rows))
	}
	if res := mustExec(t, s, "SELECT a FROM t WHERE 1 = 1 AND a > 1"); len(res.Rows) != 1 {
		t.Fatalf("constant-true conjunct broke filtering: %d rows", len(res.Rows))
	}
	if res := mustExec(t, s, "SELECT a FROM t WHERE NULL IS NULL"); len(res.Rows) != 2 {
		t.Fatalf("constant NULL-test WHERE returned %d rows", len(res.Rows))
	}
}

// TestUnreferencedSourceKeepsAlignment covers the zero-needed-columns case:
// a FROM source none of whose columns are referenced must scan a zero-width
// relation, not a full-width one with an empty schema (which would misalign
// every column after the join).
func TestUnreferencedSourceKeepsAlignment(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t1 (a INT, b INT)")
	mustExec(t, s, "CREATE TABLE t2 (x INT, y INT)")
	mustExec(t, s, "INSERT INTO t1 VALUES (111, 222)")
	mustExec(t, s, "INSERT INTO t2 VALUES (7, 8)")
	res := mustExec(t, s, "SELECT x FROM t1 JOIN t2 ON 1 = 1")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(sheet.Number(7)) {
		t.Fatalf("unreferenced-source join: got %v, want [[7]]", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t1")
	if !res.Rows[0][0].Equal(sheet.Number(1)) {
		t.Fatalf("COUNT(*) over zero-column scan = %v", res.Rows[0][0])
	}
}

// TestErrorCapableConjunctsNotHoisted pins the row-at-a-time error
// semantics: conjuncts that can fail (division etc.) must not be folded
// ahead of short-circuiting AND, and must not be pushed below a join onto
// rows the join would have eliminated.
func TestErrorCapableConjunctsNotHoisted(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t1 (a INT)")
	mustExec(t, s, "CREATE TABLE t2 (flag INT)")
	mustExec(t, s, "INSERT INTO t1 VALUES (1), (0)")

	// Short-circuit: the constant-false left conjunct must prevent the
	// division from ever being evaluated.
	res := mustExec(t, s, "SELECT a FROM t1 WHERE 1 = 2 AND 1/0 = 1")
	if len(res.Rows) != 0 {
		t.Fatalf("short-circuit rows = %v", res.Rows)
	}
	// Pushdown: t2 is empty, so the join produces no rows and 10/t1.a must
	// never be evaluated — including on the a=0 row.
	res = mustExec(t, s, "SELECT a FROM t1 JOIN t2 ON 1 = 1 WHERE flag = 1 AND 10 / a > 1")
	if len(res.Rows) != 0 {
		t.Fatalf("pushdown rows = %v", res.Rows)
	}
	// And when rows do survive, the predicate still works.
	mustExec(t, s, "INSERT INTO t2 VALUES (1)")
	res = mustExec(t, s, "SELECT a FROM t1 WHERE a <> 0 AND 10 / a > 1")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(sheet.Number(1)) {
		t.Fatalf("guarded division rows = %v", res.Rows)
	}
}

// --- projection pruning ---

// TestProjectionPruningReadsFewerBlocks verifies that a narrow projection
// with one column per group touches only the referenced columns' blocks.
func TestProjectionPruningReadsFewerBlocks(t *testing.T) {
	ps := pager.NewStore()
	db := NewDatabase(Config{GroupSize: 1, Backend: ps, BufferPoolPages: new(int)}) // 0 pages: every read hits the store
	s := db.NewSession(nil)
	cols := make([]string, 8)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d INT", i)
	}
	mustExec(t, s, "CREATE TABLE wide ("+strings.Join(cols, ", ")+")")
	for i := 0; i < 2000; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO wide VALUES (%d,%d,%d,%d,%d,%d,%d,%d)", i, i, i, i, i, i, i, i))
	}

	ps.ResetStats()
	res := mustExec(t, s, "SELECT c3 FROM wide WHERE c3 >= 0")
	if len(res.Rows) != 2000 {
		t.Fatalf("narrow scan lost rows: %d", len(res.Rows))
	}
	narrow := ps.Stats().Reads

	ps.ResetStats()
	res = mustExec(t, s, "SELECT * FROM wide")
	if len(res.Rows) != 2000 {
		t.Fatalf("wide scan lost rows: %d", len(res.Rows))
	}
	wide := ps.Stats().Reads

	if narrow == 0 || wide == 0 {
		t.Fatalf("expected block reads, got narrow=%d wide=%d", narrow, wide)
	}
	// One of eight columns referenced: the pruned scan should touch well
	// under half the blocks of the full scan.
	if narrow*2 >= wide {
		t.Fatalf("projection pruning ineffective: narrow=%d wide=%d block reads", narrow, wide)
	}
}

// --- top-K ORDER BY ... LIMIT ---

func TestTopKMatchesFullSort(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (id INT, v INT)")
	// Values with many ties so stability matters.
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, (i*37)%10))
	}
	full := mustExec(t, s, "SELECT id, v FROM t ORDER BY v, id DESC")
	for _, limit := range []int{1, 5, 17, 200, 500} {
		for _, offset := range []int{0, 3, 190} {
			q := fmt.Sprintf("SELECT id, v FROM t ORDER BY v, id DESC LIMIT %d OFFSET %d", limit, offset)
			got := mustExec(t, s, q)
			want := full.Rows
			if offset < len(want) {
				want = want[offset:]
			} else {
				want = nil
			}
			if limit < len(want) {
				want = want[:limit]
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%s: got %d rows, want %d", q, len(got.Rows), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if !got.Rows[i][c].Equal(want[i][c]) {
						t.Fatalf("%s: row %d col %d: got %v want %v", q, i, c, got.Rows[i][c], want[i][c])
					}
				}
			}
		}
	}
}

func TestTopKStabilityOnTies(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (id INT, v INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 7)", i))
	}
	// All keys equal: a stable sort keeps insertion order, so LIMIT 5 must
	// return ids 0..4 exactly.
	res := mustExec(t, s, "SELECT id FROM t ORDER BY v LIMIT 5")
	for i := 0; i < 5; i++ {
		if !res.Rows[i][0].Equal(sheet.Number(float64(i))) {
			t.Fatalf("tie-breaking lost stability: row %d = %v", i, res.Rows[i][0])
		}
	}
}

// --- typed join/group keys: golden tests against the legacy hashKey ---

// legacyHashKey is the string key the executor used before typed keys; it is
// the golden semantics the normalized key must reproduce.
func legacyHashKey(row []sheet.Value, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := sheet.Empty()
		if c < len(row) {
			v = row[c]
		}
		if f, ok := v.AsNumber(); ok && v.Kind != sheet.KindString {
			fmt.Fprintf(&sb, "n:%v|", f)
			continue
		}
		fmt.Fprintf(&sb, "%d:%s|", v.Kind, strings.ToLower(v.String()))
	}
	return sb.String()
}

func TestNormKeyMatchesLegacyHashKey(t *testing.T) {
	// Edge values: NULLs, numeric-vs-string equality, case-insensitive
	// strings, booleans, zero, errors. (-0 is deliberately excluded: the
	// legacy string key distinguished -0 from 0, while the typed key
	// follows sheet.Value.Equal, under which they are equal.)
	vals := []sheet.Value{
		sheet.Empty(),
		sheet.Number(0),
		sheet.Number(1),
		sheet.Number(1.5),
		sheet.Number(-3),
		sheet.Number(math.NaN()),
		sheet.Bool_(true),
		sheet.Bool_(false),
		sheet.String_("1"),
		sheet.String_("01"),
		sheet.String_("abc"),
		sheet.String_("ABC"),
		sheet.String_("true"),
		sheet.String_(""),
		sheet.String_(" 1"),
		sheet.ErrorValue("#DIV/0!"),
		sheet.ErrorValue("#REF!"),
	}
	for i, a := range vals {
		for j, b := range vals {
			legacyEq := legacyHashKey([]sheet.Value{a}, []int{0}) == legacyHashKey([]sheet.Value{b}, []int{0})
			typedEq := normKeyValue(a) == normKeyValue(b)
			if legacyEq != typedEq {
				t.Errorf("values %d=%q and %d=%q: legacy equal=%v, typed equal=%v",
					i, a.String(), j, b.String(), legacyEq, typedEq)
			}
		}
	}
}

// TestGroupByNormalizationGolden runs GROUP BY over edge-case keys and
// checks the groups match what the legacy string key would have produced:
// NULL groups with 0 (both coerce to the number 0), "1" stays apart from 1
// (string vs number), and case-insensitive strings group together.
func TestGroupByNormalizationGolden(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE g (k TEXT, v INT)")
	mustExec(t, s, `INSERT INTO g VALUES ('a', 1), ('A', 2), ('b', 4)`)
	res := mustExec(t, s, "SELECT k, COUNT(*) FROM g GROUP BY k")
	if len(res.Rows) != 2 {
		t.Fatalf("case-insensitive grouping: got %d groups, want 2", len(res.Rows))
	}
	// First-seen order: 'a' group (count 2) then 'b' (count 1).
	if !res.Rows[0][1].Equal(sheet.Number(2)) || !res.Rows[1][1].Equal(sheet.Number(1)) {
		t.Fatalf("group counts %v", res.Rows)
	}

	mustExec(t, s, "CREATE TABLE n (k NUMERIC)")
	mustExec(t, s, "INSERT INTO n VALUES (0), (NULL), (1)")
	res = mustExec(t, s, "SELECT COUNT(*) FROM n GROUP BY k")
	// Legacy semantics: NULL coerces to the number 0, so NULL and 0 share
	// a group — 2 groups total.
	if len(res.Rows) != 2 {
		t.Fatalf("NULL/0 grouping: got %d groups, want 2 (legacy hashKey semantics)", len(res.Rows))
	}
}

// TestJoinNormalizationGolden checks hash-join key matching across types:
// numeric-vs-string join keys must match the legacy behavior (1 joins with
// TRUE, not with '1'; strings join case-insensitively).
func TestJoinNormalizationGolden(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE a (k ANY, va INT)")
	mustExec(t, s, "CREATE TABLE b (k ANY, vb INT)")
	mustExec(t, s, `INSERT INTO a VALUES (1, 1), ('x', 2), ('1', 3)`)
	mustExec(t, s, `INSERT INTO b VALUES (TRUE, 10), ('X', 20), (1, 30)`)
	res := mustExec(t, s, "SELECT va, vb FROM a NATURAL JOIN b ORDER BY va, vb")
	// Legacy matches: number 1 (a) joins TRUE and 1 (b, both normalize to
	// n:1); 'x' joins 'X'; string '1' joins nothing (strings never
	// normalize numerically).
	type pair struct{ va, vb float64 }
	want := []pair{{1, 10}, {1, 30}, {2, 20}}
	if len(res.Rows) != len(want) {
		t.Fatalf("join rows %v, want %d matches", res.Rows, len(want))
	}
	for i, w := range want {
		if !res.Rows[i][0].Equal(sheet.Number(w.va)) || !res.Rows[i][1].Equal(sheet.Number(w.vb)) {
			t.Fatalf("join row %d = %v, want %+v", i, res.Rows[i], w)
		}
	}
}

func TestDistinctAggregateNormalization(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE d (v ANY)")
	// Legacy DISTINCT-aggregate key was kind + lower-cased string: 'a'/'A'
	// dedupe, 1 and '1' stay distinct (different kinds).
	mustExec(t, s, `INSERT INTO d VALUES ('a'), ('A'), (1), ('1'), (NULL)`)
	res := mustExec(t, s, "SELECT COUNT(DISTINCT v) FROM d")
	if !res.Rows[0][0].Equal(sheet.Number(3)) {
		t.Fatalf("COUNT(DISTINCT) = %v, want 3 (a/A dedupe; 1 vs '1' distinct; NULL ignored)", res.Rows[0][0])
	}
}

// --- streaming aggregation behavior preserved ---

func TestGroupedEdgeCases(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (k TEXT, v INT)")
	// Aggregates over an empty table still produce one row.
	res := mustExec(t, s, "SELECT COUNT(*), SUM(v), MIN(v) FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("empty aggregation rows = %d", len(res.Rows))
	}
	if !res.Rows[0][0].Equal(sheet.Number(0)) || !res.Rows[0][1].IsEmpty() || !res.Rows[0][2].IsEmpty() {
		t.Fatalf("empty aggregation = %v", res.Rows[0])
	}
	mustExec(t, s, `INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 5), ('b', NULL)`)
	res = mustExec(t, s, "SELECT k, COUNT(v), AVG(v) FROM t GROUP BY k HAVING COUNT(*) > 1 ORDER BY k")
	if len(res.Rows) != 2 {
		t.Fatalf("grouped rows = %d", len(res.Rows))
	}
	if !res.Rows[0][2].Equal(sheet.Number(2)) { // AVG(1,3)
		t.Fatalf("AVG group a = %v", res.Rows[0][2])
	}
	if !res.Rows[1][1].Equal(sheet.Number(1)) { // COUNT(v) ignores NULL
		t.Fatalf("COUNT group b = %v", res.Rows[1][1])
	}
}

func TestRangeValueFoldedPerExecution(t *testing.T) {
	db, _ := newTestDB(t)
	fs := newFakeSheets()
	s := db.NewSession(fs)
	mustExec(t, s, "CREATE TABLE t (v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3)")
	fs.cells["B1"] = sheet.Number(2)
	const q = "SELECT v FROM t WHERE v > RANGEVALUE(B1)"
	if res := mustExec(t, s, q); len(res.Rows) != 1 {
		t.Fatalf("RANGEVALUE=2: %d rows", len(res.Rows))
	}
	// Same cached plan, new parameter value: the fold must happen per
	// execution, not per prepared plan.
	fs.cells["B1"] = sheet.Number(0)
	if res := mustExec(t, s, q); len(res.Rows) != 3 {
		t.Fatalf("RANGEVALUE=0 after cache: %d rows", len(res.Rows))
	}
}
