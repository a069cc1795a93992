package sqlexec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The golden access-path tests: for every query shape and every group
// shape, the result of the planner-chosen index path must be row-for-row
// identical to the forced full scan, and EXPLAIN must report the expected
// path — on the database that built the indexes in memory, and on one that
// attached them from a checkpoint and loads each leaf page on first touch.

// accessDBs lists the two ways the suites obtain their test database.
var accessDBs = []struct {
	name string
	open func(*testing.T, int) (*Database, *Session)
}{
	{"built", newAccessDB},
	{"reopened", reopenedAccessDB},
}

// reopenedAccessDB is newAccessDB after a checkpoint and a reopen: the
// catalog is captured and attached to a fresh Database over the same
// backend, so every index is a tree of unloaded leaves.
func reopenedAccessDB(t *testing.T, groupSize int) (*Database, *Session) {
	t.Helper()
	db, _ := newAccessDB(t, groupSize)
	re := reopenDB(t, db)
	return re, re.NewSession(newFakeSheets())
}

// newAccessDB builds a deterministic test table with a numeric primary key,
// a non-unique secondary index and a text column, inserting rows in a
// shuffled key order so RowID order and key order differ.
func newAccessDB(t *testing.T, groupSize int) (*Database, *Session) {
	t.Helper()
	db := NewDatabase(Config{GroupSize: groupSize, Backend: pager.NewStore()})
	s := db.NewSession(newFakeSheets())
	mustExec(t, s, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, v NUMERIC, name TEXT)")
	const n = 400
	for i := 0; i < n; i++ {
		// Multiplicative shuffle: ids 0..n-1 in scrambled insertion order.
		id := (i*17 + 5) % n
		row := []sheet.Value{
			sheet.Number(float64(id)),
			sheet.Number(float64(id % 7)),
			sheet.Number(float64(id) / 3),
			sheet.String_(fmt.Sprintf("n%03d", id)),
		}
		if id%25 == 0 {
			row[1] = sheet.Empty() // NULL group
		}
		if _, err := db.Insert("items", row); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "CREATE INDEX idx_grp ON items (grp)")
	return db, s
}

// resultsEqual compares two results exactly: same columns, same rows in the
// same order, same values.
func resultsEqual(a, b *Result) string {
	if strings.Join(a.Columns, ",") != strings.Join(b.Columns, ",") {
		return fmt.Sprintf("columns differ: %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d widths differ", i)
		}
		for j := range a.Rows[i] {
			va, vb := a.Rows[i][j], b.Rows[i][j]
			if va.Kind != vb.Kind || va.String() != vb.String() {
				return fmt.Sprintf("row %d col %d differs: %q vs %q", i, j, va.String(), vb.String())
			}
		}
	}
	return ""
}

// goldenQueries maps each query shape to the substring its EXPLAIN must
// report for the items source (empty = no EXPLAIN assertion).
var goldenQueries = []struct {
	sql     string
	explain string
}{
	{"SELECT * FROM items WHERE id = 137", "pk point (id)"},
	{"SELECT id, v FROM items WHERE id = -1", "pk point (id)"},
	{"SELECT id, name FROM items WHERE id = 137 AND v > 0", "pk point (id)"},
	{"SELECT id FROM items WHERE id BETWEEN 100 AND 120", "pk range (id)"},
	{"SELECT id, name FROM items WHERE id >= 380", "pk range (id)"},
	{"SELECT id FROM items WHERE id > 100 AND id <= 110 AND v > 0", "pk range (id)"},
	{"SELECT id FROM items WHERE 100 < id AND 110 >= id", "pk range (id)"},
	{"SELECT id, grp FROM items WHERE grp = 3 AND v > 10", "index idx_grp point (grp)"},
	{"SELECT id FROM items WHERE grp = 3 ORDER BY id", "index idx_grp point (grp)"},
	{"SELECT id FROM items WHERE grp >= 5", "index idx_grp range (grp)"},
	{"SELECT id FROM items ORDER BY id LIMIT 7", "index-ordered"},
	{"SELECT id FROM items ORDER BY id DESC LIMIT 7", "index-ordered"},
	{"SELECT id FROM items ORDER BY id LIMIT 5 OFFSET 3", "index-ordered"},
	{"SELECT id FROM items WHERE v > 50 ORDER BY id LIMIT 9", "index-ordered"},
	{"SELECT id FROM items WHERE id > 200 ORDER BY id LIMIT 5", "pk range (id), index-ordered"},
	{"SELECT id, grp FROM items ORDER BY grp LIMIT 10", "index idx_grp scan, index-ordered"},
	{"SELECT id, v FROM items WHERE id IN (3, 17, 17, 250, 9999)", "pk in-list (id, 4 probes)"},
	{"SELECT id FROM items WHERE id IN (5)", "pk in-list (id, 1 probes)"},
	{"SELECT id, v FROM items WHERE id IN (2, 4, 6) AND v > 0.5", "pk in-list (id, 3 probes)"},
	{"SELECT id, grp FROM items WHERE grp IN (2, 5)", "index idx_grp in-list (grp, 2 probes)"},
	{"SELECT id FROM items WHERE grp IN (1, 3) ORDER BY id", "index idx_grp in-list (grp, 2 probes)"},
	{"SELECT id FROM items WHERE id NOT IN (1, 2)", "full scan"},
	{"SELECT id FROM items WHERE name IN ('n001', 'n002')", "full scan"},
	{"SELECT id FROM items WHERE id IN (1, 'zzz')", "full scan"},
	{"SELECT name FROM items WHERE name = 'n007'", "full scan"},
	{"SELECT id FROM items WHERE grp = 3 OR id = 2", "full scan"},
	{"SELECT COUNT(*) FROM items WHERE id BETWEEN 50 AND 60", "pk range (id)"},
	{"SELECT COUNT(v) FROM items WHERE v >= 0", "full scan"},
	{"SELECT a.id, b.id FROM items a JOIN items b ON a.id = b.grp WHERE a.id < 20", "pk range (id)"},
	{"SELECT id FROM items WHERE id = 10 OR FALSE", ""},
	// LIMIT/OFFSET with no ORDER BY: the shape QueryStream cuts itself, within
	// one fetch batch and across two.
	{"SELECT id, name FROM items WHERE id BETWEEN 100 AND 160 LIMIT 9 OFFSET 4", "pk range (id)"},
	{"SELECT id FROM items WHERE id >= 10 LIMIT 300 OFFSET 20", "pk range (id)"},
	{"SELECT id FROM items WHERE grp >= 2 AND v > 5 LIMIT 11 OFFSET 2", "index idx_grp range (grp)"},
}

// forEachAccessDB runs fn as a subtest per group shape and per way of obtaining
// the database.
func forEachAccessDB(t *testing.T, fn func(t *testing.T, open func(*testing.T) (*Database, *Session))) {
	for _, shape := range tablestore.Shapes {
		for _, src := range accessDBs {
			t.Run(shape.Name+"/"+src.name, func(t *testing.T) {
				fn(t, func(t *testing.T) (*Database, *Session) { return src.open(t, shape.GroupSize) })
			})
		}
	}
}

func TestAccessPathGoldenEquivalence(t *testing.T) {
	forEachAccessDB(t, func(t *testing.T, open func(*testing.T) (*Database, *Session)) {
		db, s := open(t)
		for _, q := range goldenQueries {
			db.SetPlanHint(PlanHint{FullScan: true})
			want := mustExec(t, s, q.sql)
			db.SetPlanHint(PlanHint{})
			got := mustExec(t, s, q.sql)
			if diff := resultsEqual(want, got); diff != "" {
				t.Errorf("%s: index path diverges from full scan: %s", q.sql, diff)
			}
			if q.explain == "" {
				continue
			}
			plan := mustExec(t, s, "EXPLAIN "+q.sql)
			text := planText(plan)
			if !strings.Contains(text, q.explain) {
				t.Errorf("EXPLAIN %s = %q, want substring %q", q.sql, text, q.explain)
			}
		}
	})
}

// TestBareCountGolden: a bare COUNT(*) answers from the pinned snapshot's
// row count without pulling a page; it must equal the count a scan folds —
// the same statement with WHERE TRUE — in every group shape, at every worker
// count, on the built table and on one reopened from its checkpoint, with
// deleted rows in both.
func TestBareCountGolden(t *testing.T) {
	pairs := [][2]string{
		{"SELECT COUNT(*) FROM items", "SELECT COUNT(*) FROM items WHERE TRUE"},
		{"SELECT COUNT(*) + 1, COUNT(*) AS n FROM items", "SELECT COUNT(*) + 1, COUNT(*) AS n FROM items WHERE TRUE"},
		{"SELECT COUNT(*) FROM items HAVING COUNT(*) > 1000", "SELECT COUNT(*) FROM items WHERE TRUE HAVING COUNT(*) > 1000"},
		{"SELECT DISTINCT COUNT(*) FROM items", "SELECT DISTINCT COUNT(*) FROM items WHERE TRUE"},
		{"SELECT COUNT(*) FROM empty", "SELECT COUNT(*) FROM empty WHERE TRUE"},
		// No group at all over an empty table, where the bare answer's one
		// group would read 0.
		{"SELECT COUNT(*) FROM empty GROUP BY 'k'", "SELECT COUNT(*) FROM empty WHERE TRUE GROUP BY 'k'"},
	}
	for _, shape := range tablestore.Shapes {
		for _, src := range []string{"built", "reopened"} {
			t.Run(shape.Name+"/"+src, func(t *testing.T) {
				db, s := newAccessDB(t, shape.GroupSize)
				mustExec(t, s, "DELETE FROM items WHERE id % 9 = 4")
				mustExec(t, s, "CREATE TABLE empty (x INT)")
				if src == "reopened" {
					db = reopenDB(t, db)
					s = db.NewSession(newFakeSheets())
				}
				mustExec(t, s, "INSERT INTO items VALUES (1000, 1, 1, 'new')")
				for _, workers := range []int{1, 2, 3, 8} {
					db.SetPlanHint(PlanHint{Workers: workers})
					for _, q := range pairs {
						want := mustExec(t, s, q[1])
						before := db.Pool().Stats()
						got := mustExec(t, s, q[0])
						if touched := db.Pool().Stats().Sub(before); touched.Hits+touched.Misses != 0 {
							t.Errorf("%d workers, %s: pulled %d pages", workers, q[0], touched.Hits+touched.Misses)
						}
						if diff := resultsEqual(want, got); diff != "" {
							t.Errorf("%d workers, %s: differs from the scanned count: %s", workers, q[0], diff)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentFirstTouchGolden: eight sessions open on a freshly reopened
// database run the golden queries at once, so their first index probes load
// the same leaves concurrently under the shared engine read lock. Every
// result must equal the full-scan answer. Run under -race.
func TestConcurrentFirstTouchGolden(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			built, bs := newAccessDB(t, shape.GroupSize)
			built.SetPlanHint(PlanHint{FullScan: true})
			want := make([]*Result, len(goldenQueries))
			for i, q := range goldenQueries {
				want[i] = mustExec(t, bs, q.sql)
			}
			db, _ := reopenedAccessDB(t, shape.GroupSize)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := db.NewSession(newFakeSheets())
					for i, q := range goldenQueries {
						got, err := s.Query(q.sql)
						if err != nil {
							t.Errorf("%s: %v", q.sql, err)
							return
						}
						if diff := resultsEqual(want[i], got); diff != "" {
							t.Errorf("%s: concurrent first touch diverges from full scan: %s", q.sql, diff)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func planText(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestAccessPathAfterMutations re-checks equivalence after deletes, updates
// (including key-moving updates) and fresh inserts, proving the indexes are
// maintained transactionally with the base table.
func TestAccessPathAfterMutations(t *testing.T) {
	forEachAccessDB(t, func(t *testing.T, open func(*testing.T) (*Database, *Session)) {
		db, s := open(t)
		mustExec(t, s, "DELETE FROM items WHERE id BETWEEN 100 AND 140")
		mustExec(t, s, "UPDATE items SET grp = 99 WHERE id >= 300 AND id < 320")
		mustExec(t, s, "UPDATE items SET id = 1000 WHERE id = 7")
		mustExec(t, s, "INSERT INTO items VALUES (2000, 3, 1.5, 'fresh')")
		// A rolled-back transaction must leave the indexes untouched.
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "INSERT INTO items VALUES (3000, 3, 9, 'ghost')")
		mustExec(t, s, "DELETE FROM items WHERE id = 2000")
		mustExec(t, s, "ROLLBACK")
		for _, sql := range []string{
			"SELECT id FROM items WHERE id = 7",
			"SELECT id FROM items WHERE id = 1000",
			"SELECT id FROM items WHERE id = 3000",
			"SELECT id, name FROM items WHERE id = 2000",
			"SELECT id FROM items WHERE id BETWEEN 90 AND 150",
			"SELECT id FROM items WHERE grp = 99 ORDER BY id",
			"SELECT id FROM items WHERE grp = 3 AND v > 1",
			"SELECT id FROM items ORDER BY id DESC LIMIT 12",
		} {
			db.SetPlanHint(PlanHint{FullScan: true})
			want := mustExec(t, s, sql)
			db.SetPlanHint(PlanHint{})
			got := mustExec(t, s, sql)
			if diff := resultsEqual(want, got); diff != "" {
				t.Errorf("%s after mutations: %s", sql, diff)
			}
		}
	})
}

// TestDMLAccessPaths checks UPDATE/DELETE locate their targets through the
// index and produce states identical to forced full scans.
func TestDMLAccessPaths(t *testing.T) {
	for _, src := range accessDBs {
		t.Run(src.name, func(t *testing.T) { dmlAccessPaths(t, src.open) })
	}
}

func dmlAccessPaths(t *testing.T, open func(*testing.T, int) (*Database, *Session)) {
	run := func(force bool) *Result {
		db, s := open(t, tablestore.DefaultGroupSize)
		db.SetPlanHint(PlanHint{FullScan: force})
		mustExec(t, s, "UPDATE items SET v = -1 WHERE id = 42")
		mustExec(t, s, "UPDATE items SET v = -2 WHERE id BETWEEN 200 AND 210")
		mustExec(t, s, "DELETE FROM items WHERE grp = 5 AND id < 100")
		db.SetPlanHint(PlanHint{FullScan: true}) // read back identically in both runs
		return mustExec(t, s, "SELECT * FROM items ORDER BY id")
	}
	want, got := run(true), run(false)
	if diff := resultsEqual(want, got); diff != "" {
		t.Fatalf("DML via index path diverges: %s", diff)
	}

	_, s := open(t, tablestore.DefaultGroupSize)
	plan := mustExec(t, s, "EXPLAIN UPDATE items SET v = 0 WHERE id = 3")
	if text := planText(plan); !strings.Contains(text, "pk point (id)") {
		t.Fatalf("EXPLAIN UPDATE = %q, want pk point", text)
	}
	plan = mustExec(t, s, "EXPLAIN DELETE FROM items WHERE grp = 2")
	if text := planText(plan); !strings.Contains(text, "index idx_grp point (grp)") {
		t.Fatalf("EXPLAIN DELETE = %q, want index point", text)
	}
	// An error-capable conjunct disables candidate narrowing.
	plan = mustExec(t, s, "EXPLAIN DELETE FROM items WHERE id = 3 AND 1/v > 0")
	if text := planText(plan); !strings.Contains(text, "full scan") {
		t.Fatalf("EXPLAIN DELETE with error-capable WHERE = %q, want full scan", text)
	}
}

// TestUniqueSecondaryIndex checks UNIQUE enforcement on insert and update,
// NULLs exempted.
func TestUniqueSecondaryIndex(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY, code INT)")
	mustExec(t, s, "INSERT INTO u VALUES (1, 10), (2, 20), (3, NULL), (4, NULL)")
	mustExec(t, s, "CREATE UNIQUE INDEX ux ON u (code)")
	if _, err := s.Query("INSERT INTO u VALUES (5, 10)"); err == nil {
		t.Fatal("duplicate unique value accepted on insert")
	}
	if _, err := s.Query("UPDATE u SET code = 20 WHERE id = 1"); err == nil {
		t.Fatal("duplicate unique value accepted on update")
	}
	mustExec(t, s, "INSERT INTO u VALUES (6, NULL)") // NULLs repeat freely
	mustExec(t, s, "UPDATE u SET code = 30 WHERE id = 1")
	mustExec(t, s, "INSERT INTO u VALUES (7, 10)") // 10 was freed by the update
	if _, err := s.Query("CREATE UNIQUE INDEX ux2 ON u (id, code)"); err != nil {
		t.Fatalf("composite unique index over distinct rows: %v", err)
	}
	mustExec(t, s, "DROP INDEX ux")
	mustExec(t, s, "INSERT INTO u VALUES (8, 30)") // constraint gone
}

// TestCreateUniqueIndexRejectsDuplicates ensures the backfill build detects
// existing duplicates and registers nothing.
func TestCreateUniqueIndexRejectsDuplicates(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE d (id INT PRIMARY KEY, code INT)")
	mustExec(t, s, "INSERT INTO d VALUES (1, 10), (2, 10)")
	if _, err := s.Query("CREATE UNIQUE INDEX dx ON d (code)"); err == nil {
		t.Fatal("unique index built over duplicate values")
	}
	if got := len(db.Indexes("d")); got != 0 {
		t.Fatalf("failed index build left %d registered indexes", got)
	}
}

// TestIndexDDLBumpsSchemaEpoch is the plan-cache staleness regression: a
// statement prepared before CREATE INDEX must be discarded by the cache
// after it, so the next preparation re-plans its access path.
func TestIndexDDLBumpsSchemaEpoch(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%5))
	}
	const q = "SELECT id FROM t WHERE g = 3"
	p1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if text := planText(mustExec(t, s, "EXPLAIN "+q)); !strings.Contains(text, "full scan") {
		t.Fatalf("pre-index EXPLAIN = %q, want full scan", text)
	}
	epoch := db.SchemaEpoch()
	mustExec(t, s, "CREATE INDEX tg ON t (g)")
	if db.SchemaEpoch() == epoch {
		t.Fatal("CREATE INDEX did not bump the schema epoch")
	}
	p2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("plan cache returned the pre-index prepared statement after CREATE INDEX")
	}
	if text := planText(mustExec(t, s, "EXPLAIN "+q)); !strings.Contains(text, "index tg point (g)") {
		t.Fatalf("post-index EXPLAIN = %q, want index point", text)
	}
	res := mustExec(t, s, q)
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	epoch = db.SchemaEpoch()
	mustExec(t, s, "DROP INDEX tg")
	if db.SchemaEpoch() == epoch {
		t.Fatal("DROP INDEX did not bump the schema epoch")
	}
}

// TestIndexesSurviveSchemaEvolution checks cascade-drop of indexes whose
// column disappears and position fix-ups for the rest.
func TestIndexesSurviveSchemaEvolution(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE e (id INT PRIMARY KEY, a INT, b INT)")
	mustExec(t, s, "INSERT INTO e VALUES (1, 10, 100), (2, 20, 200), (3, 20, 300)")
	mustExec(t, s, "CREATE INDEX ea ON e (a)")
	mustExec(t, s, "CREATE INDEX eb ON e (b)")
	mustExec(t, s, "ALTER TABLE e DROP COLUMN a")
	if got := len(db.Indexes("e")); got != 1 {
		t.Fatalf("after dropping an indexed column: %d indexes, want 1 (cascade)", got)
	}
	// eb's resolved position must have shifted with the schema.
	db.SetPlanHint(PlanHint{FullScan: true})
	want := mustExec(t, s, "SELECT id FROM e WHERE b = 200")
	db.SetPlanHint(PlanHint{})
	got := mustExec(t, s, "SELECT id FROM e WHERE b = 200")
	if diff := resultsEqual(want, got); diff != "" {
		t.Fatalf("index eb broken after column drop: %s", diff)
	}
	if text := planText(mustExec(t, s, "EXPLAIN SELECT id FROM e WHERE b = 200")); !strings.Contains(text, "index eb point (b)") {
		t.Fatalf("EXPLAIN after drop = %q", text)
	}
	mustExec(t, s, "ALTER TABLE e RENAME COLUMN b TO c")
	defs := db.Indexes("e")
	if len(defs) != 1 || defs[0].Columns[0] != "c" {
		t.Fatalf("rename not reflected in index definition: %+v", defs)
	}
}

// TestOrderedScanTieOrder pins the tie-order contract of sort elision:
// a composite index must NOT serve ORDER BY on its leading column (ties
// there follow the trailing index column, not the stable row order), and a
// unique index walked DESC must emit its NULL group — exempt from
// uniqueness, hence the only possible ties — in ascending RowID order.
func TestOrderedScanTieOrder(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE ct (a INT, b INT)")
	mustExec(t, s, "INSERT INTO ct VALUES (1, 9), (1, 1), (2, 5)")
	mustExec(t, s, "CREATE INDEX cab ON ct (a, b)")
	for _, q := range []string{
		"SELECT a, b FROM ct ORDER BY a LIMIT 1",
		"SELECT a, b FROM ct ORDER BY a LIMIT 2",
	} {
		db := s.db
		db.SetPlanHint(PlanHint{FullScan: true})
		want := mustExec(t, s, q)
		db.SetPlanHint(PlanHint{})
		got := mustExec(t, s, q)
		if diff := resultsEqual(want, got); diff != "" {
			t.Errorf("%s: composite-index elision broke tie order: %s", q, diff)
		}
	}
	if text := planText(mustExec(t, s, "EXPLAIN SELECT a FROM ct ORDER BY a LIMIT 1")); strings.Contains(text, "index-ordered") {
		t.Errorf("composite index wrongly serves single-term ORDER BY: %q", text)
	}

	mustExec(t, s, "CREATE TABLE un (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO un VALUES (1, NULL), (2, NULL), (3, 5)")
	mustExec(t, s, "CREATE UNIQUE INDEX uv ON un (v)")
	for _, q := range []string{
		"SELECT id FROM un ORDER BY v DESC LIMIT 2",
		"SELECT id FROM un ORDER BY v DESC LIMIT 3",
		"SELECT id FROM un ORDER BY v LIMIT 2",
	} {
		db := s.db
		db.SetPlanHint(PlanHint{FullScan: true})
		want := mustExec(t, s, q)
		db.SetPlanHint(PlanHint{})
		got := mustExec(t, s, q)
		if diff := resultsEqual(want, got); diff != "" {
			t.Errorf("%s: NULL-group tie order diverges: %s", q, diff)
		}
	}
	if text := planText(mustExec(t, s, "EXPLAIN SELECT id FROM un ORDER BY v DESC LIMIT 2")); !strings.Contains(text, "index-ordered") {
		t.Errorf("unique single-column index should elide the DESC sort: %q", text)
	}
}
