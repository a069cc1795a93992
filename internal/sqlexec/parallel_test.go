package sqlexec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The parallel executor must be output-equivalent to the serial one: every
// query here runs once under PlanHint{Workers: 1} (the golden) and once in
// parallel mode, on identical data, and the results must match row for row.
// Integer-valued data keeps SUM/AVG exact, so the reassociation a parallel
// fold introduces cannot perturb float results.

// parTestRows is comfortably above parMinRows so the parallel fragments
// actually engage.
const parTestRows = parMinRows + 1200

func newParDB(t *testing.T, groupSize int) *Database {
	t.Helper()
	db := NewDatabase(Config{GroupSize: groupSize, Workers: 4})
	mustExecP(t, db, `CREATE TABLE items (id NUMBER PRIMARY KEY, grp NUMBER, qty NUMBER, label STRING)`)
	mustExecP(t, db, `CREATE TABLE grps (gid NUMBER PRIMARY KEY, name STRING)`)
	mustExecP(t, db, `CREATE TABLE tags (grp NUMBER, tag STRING)`)
	for i := 0; i < parTestRows; i++ {
		if _, err := db.Insert("items", []sheet.Value{
			sheet.Number(float64(i)),
			sheet.Number(float64(i % 37)),
			sheet.Number(float64(i%101 - 50)),
			sheet.String_(fmt.Sprintf("item-%d", i%13)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// More groups than fit one morsel, and a few gids with no items so LEFT
	// JOIN padding differs from the inner join.
	for g := 0; g < 45; g++ {
		if _, err := db.Insert("grps", []sheet.Value{
			sheet.Number(float64(g)), sheet.String_(fmt.Sprintf("group-%d", g)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// tags shares the column name grp with items (NATURAL / USING keys): some
	// grps carry two tags, grps 30..36 none (LEFT JOIN padding), and one tag
	// has a NULL key, which the legacy key semantics equate with grp 0.
	for g := 0; g < 30; g++ {
		for k := 0; k <= g%3/2; k++ {
			if _, err := db.Insert("tags", []sheet.Value{sheet.Number(float64(g)), sheet.String_(fmt.Sprintf("tag-%d-%d", g, k))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.Insert("tags", []sheet.Value{sheet.Empty(), sheet.String_("tag-null")}); err != nil {
		t.Fatal(err)
	}
	// A handful of deletes so snapshots scan around tombstones.
	for _, id := range []int64{3, 500, 4000} {
		if err := db.Delete("items", mustFindPK(t, db, id)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustExecP(t *testing.T, db *Database, sql string) {
	t.Helper()
	if _, err := db.NewSession(nil).Query(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func mustFindPK(t *testing.T, db *Database, id int64) tablestore.RowID {
	t.Helper()
	r, ok, err := db.FindByKey("items", []sheet.Value{sheet.Number(float64(id))})
	if err != nil || !ok {
		t.Fatalf("FindByKey(%d): ok=%v err=%v", id, ok, err)
	}
	return r
}

var parGoldenQueries = []string{
	// Full scan and pushed-predicate scans.
	`SELECT id, grp, qty, label FROM items`,
	`SELECT id, label FROM items WHERE qty > 10`,
	`SELECT id FROM items WHERE label = 'item-7' AND qty <> 0`,
	// Aggregation: implicit single group and explicit GROUP BY with every
	// accumulator kind, HAVING, and expression keys.
	`SELECT COUNT(*), SUM(qty), MIN(qty), MAX(label) FROM items`,
	`SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM items GROUP BY grp ORDER BY grp`,
	`SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING SUM(qty) > 0 ORDER BY grp`,
	`SELECT grp + 1, COUNT(*) FROM items WHERE id < 5000 GROUP BY grp + 1 ORDER BY 1`,
	// The same GROUP BY with no ORDER BY: groups come out in the fold's own
	// order, which must not depend on the worker count.
	`SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM items GROUP BY grp`,
	// DISTINCT aggregates must fall back to serial and still agree.
	`SELECT COUNT(DISTINCT label) FROM items`,
	// Hash joins: ON equi-key (inner and LEFT, both directions of match
	// skew) and a cross-source residual predicate.
	`SELECT i.id, g.name FROM items i JOIN grps g ON i.grp = g.gid WHERE i.qty > 25 ORDER BY i.id`,
	`SELECT g.gid, i.id FROM grps g LEFT JOIN items i ON g.gid = i.grp AND i.qty > 48 ORDER BY g.gid, i.id`,
	`SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.gid AND i.qty <> g.gid`,
	// DISTINCT / ORDER BY / LIMIT downstream of parallel fragments.
	`SELECT DISTINCT label FROM items ORDER BY label`,
	`SELECT id, qty FROM items WHERE qty >= 0 ORDER BY qty, id LIMIT 40 OFFSET 5`,
	// LIMIT/OFFSET with no ORDER BY: partition order is the result order, and
	// QueryStream applies the cut itself instead of materialising.
	`SELECT label FROM items WHERE grp = 11 LIMIT 17 OFFSET 3`,
	`SELECT id FROM items LIMIT 5`,
	`SELECT id, qty FROM items WHERE qty > 10 LIMIT 5000 OFFSET 4100`,
	// NATURAL / USING hash joins (key match only, the right-hand key copy
	// dropped) probed by a source above parMinRows; LEFT with unmatched rows.
	`SELECT id, tag FROM items NATURAL JOIN tags WHERE qty > 30`,
	`SELECT * FROM items JOIN tags USING (grp) WHERE label <> 'item-3'`,
	`SELECT id, grp, tag FROM items LEFT JOIN tags USING (grp) WHERE qty = 7`,
	// Non-equi ON: every build row is a candidate (nested loop), with the
	// big table on the probe side and on the build side.
	`SELECT i.id, g.gid FROM items i JOIN grps g ON i.grp > g.gid + 30 WHERE i.qty > 40`,
	`SELECT g.gid, COUNT(i.id) FROM grps g LEFT JOIN items i ON i.grp < g.gid - 40 GROUP BY g.gid ORDER BY g.gid`,
	`SELECT i.id FROM items i JOIN grps g ON i.grp > g.gid WHERE g.gid > 1000`, // empty build side
	// Comma / CROSS join against a filtered small side.
	`SELECT i.id, g.name FROM items i, grps g WHERE g.gid < 2 AND i.qty = 11`,
	`SELECT COUNT(*) FROM items i CROSS JOIN grps g WHERE g.gid > 42`,
	// A three-table chain (probe wrapping a probe) and a self-join whose two
	// sides are both above parMinRows.
	`SELECT i.id, g.name, t.tag FROM items i JOIN grps g ON i.grp = g.gid JOIN tags t ON t.grp = g.gid WHERE i.qty < -45`,
	`SELECT a.id, b.qty FROM items a JOIN items b ON a.id = b.id WHERE b.qty > 45`,
	`SELECT COUNT(*), SUM(b.qty) FROM items a JOIN items b USING (id)`,
	// GROUP BY folding a join's output straight from the probe.
	`SELECT g.name, COUNT(*), SUM(i.qty), MIN(i.label) FROM items i JOIN grps g ON i.grp = g.gid GROUP BY g.name ORDER BY g.name`,
	`SELECT g.name, COUNT(*) FROM items i JOIN grps g ON i.grp = g.gid AND i.qty > 0 GROUP BY g.name`,
	// A sub-select source above parMinRows: filtered, folded and joined.
	`SELECT s.id FROM (SELECT id, qty FROM items) s WHERE s.qty = 9`,
	`SELECT s.grp, COUNT(*), MAX(s.q2) FROM (SELECT grp, qty * 2 AS q2 FROM items WHERE qty <> 3) s GROUP BY s.grp ORDER BY s.grp`,
	`SELECT s.id, g.name FROM (SELECT id, grp FROM items WHERE qty < 0) s JOIN grps g ON s.grp = g.gid`,
	// Aggregates over an empty input, with and without GROUP BY.
	`SELECT COUNT(*), SUM(qty), MIN(label) FROM items WHERE label = 'none'`,
	`SELECT grp, COUNT(*) FROM items WHERE label = 'none' GROUP BY grp`,
}

// parGoldenExplain names the strategy a golden query is there to exercise: at
// the fixture's pool width of 4, its EXPLAIN must contain every substring.
var parGoldenExplain = map[string][]string{
	`SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING SUM(qty) > 0 ORDER BY grp`: {"parallel: 4 workers, 16 partitions", "group: fold over 16 partitions"},
	`SELECT COUNT(DISTINCT label) FROM items`:                                       {"group: serial: DISTINCT aggregate"},
	`SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.gid AND i.qty <> g.gid`:  {"join: nested loop, parallel: 4 workers", "group: fold over 16 partitions"},
	`SELECT i.id, g.name FROM items i JOIN grps g ON i.grp = g.gid WHERE i.qty > 25 ORDER BY i.id`: {
		"join: hash, 1 key(s), residual ON, parallel: 4 workers"},
	`SELECT g.gid, i.id FROM grps g LEFT JOIN items i ON g.gid = i.grp AND i.qty > 48 ORDER BY g.gid, i.id`: {"join: nested loop"},
	`SELECT id, tag FROM items NATURAL JOIN tags WHERE qty > 30`:                                            {"join: hash, 1 key(s), parallel: 4 workers"},
	`SELECT id, grp, tag FROM items LEFT JOIN tags USING (grp) WHERE qty = 7`:                               {"join: hash, 1 key(s), parallel: 4 workers"},
	`SELECT i.id, g.gid FROM items i JOIN grps g ON i.grp > g.gid + 30 WHERE i.qty > 40`:                    {"join: nested loop, parallel: 4 workers"},
	`SELECT i.id, g.name FROM items i, grps g WHERE g.gid < 2 AND i.qty = 11`:                               {"join: cross, parallel: 4 workers"},
	`SELECT COUNT(*), SUM(b.qty) FROM items a JOIN items b USING (id)`:                                      {"join: hash, 1 key(s), parallel: 4 workers", "group: fold over 16 partitions"},
	`SELECT s.grp, COUNT(*), MAX(s.q2) FROM (SELECT grp, qty * 2 AS q2 FROM items WHERE qty <> 3) s GROUP BY s.grp ORDER BY s.grp`: {
		"materialised source", "group: fold over 16 partitions"},
	`SELECT grp, COUNT(*) FROM items WHERE label = 'none' GROUP BY grp`: {"group: fold over 16 partitions"},
}

func TestParallelGoldenEquivalence(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			db := newParDB(t, shape.GroupSize)
			sess := db.NewSession(nil)
			for _, q := range parGoldenQueries {
				db.SetPlanHint(PlanHint{Workers: 1})
				want, err := sess.Query(q)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				// 0 is the fixture's pool of 4; odd counts move the partition
				// boundaries, 8 over-splits the 5.3k rows.
				for _, workers := range []int{0, 2, 3, 8} {
					db.SetPlanHint(PlanHint{Workers: workers})
					got, err := sess.Query(q)
					if err != nil {
						t.Fatalf("%d workers %s: %v", workers, q, err)
					}
					if !reflect.DeepEqual(want.Columns, got.Columns) {
						t.Fatalf("%s: columns %v != %v", q, got.Columns, want.Columns)
					}
					if !reflect.DeepEqual(want.Rows, got.Rows) {
						t.Fatalf("%s: result at %d workers diverged from serial (%d vs %d rows)",
							q, workers, len(got.Rows), len(want.Rows))
					}
				}
				db.SetPlanHint(PlanHint{})
				text := planText(mustExec(t, sess, "EXPLAIN "+q))
				for _, sub := range parGoldenExplain[q] {
					if !strings.Contains(text, sub) {
						t.Errorf("EXPLAIN %s = %q, want substring %q", q, text, sub)
					}
				}
			}
		})
	}
}

// reopenDB captures db's page catalog and zone maps and attaches them to a
// fresh Database over the same backend — the state a checkpointed workbook
// reopens in: stores attached to their pages, every index a tree of unloaded
// leaves, zone summaries read back from the blob.
func reopenDB(t *testing.T, db *Database) *Database {
	t.Helper()
	blob, err := db.MarshalPages()
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.cfg
	cfg.Backend = db.pageStore
	re := NewDatabase(cfg)
	if err := re.AttachPages(blob); err != nil {
		t.Fatal(err)
	}
	if err := re.AttachZones(db.MarshalZones()); err != nil {
		t.Fatal(err)
	}
	return re
}

// streamResult drains StreamPrepared into a Result.
func streamResult(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	rows, err := s.StreamPrepared(context.Background(), mustPrepare(t, s.db, q))
	if err != nil {
		t.Fatalf("stream %s: %v", q, err)
	}
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream %s: %v", q, err)
	}
	return res
}

// TestParallelStreamGoldenEquivalence holds QueryStream — the kernel's
// serial puller for full scans, read-committed batches for index paths, the
// materialising fallback for blocking shapes — to the three golden suites:
// streamed with the suite's switch on and off, every query must match the
// materialised reference row for row, in every group shape, on the database that
// built the data and on one reopened from its checkpoint.
func TestParallelStreamGoldenEquivalence(t *testing.T) {
	var accessSQL []string
	for _, q := range goldenQueries {
		accessSQL = append(accessSQL, q.sql)
	}
	suites := []struct {
		name    string
		open    func(*testing.T, int) *Database
		queries []string
		// ref returns the hint that turns the suite's reference path on or off.
		ref func(on bool) PlanHint
	}{
		{"parallel", newParDB, parGoldenQueries, func(on bool) PlanHint {
			if on {
				return PlanHint{Workers: 1}
			}
			return PlanHint{}
		}},
		{"zone", func(t *testing.T, groupSize int) *Database {
			db, _ := newZoneDB(t, groupSize, pager.NewStore())
			return db
		}, zoneQueries, func(on bool) PlanHint { return PlanHint{NoSkip: on} }},
		{"access", func(t *testing.T, groupSize int) *Database {
			db, _ := newAccessDB(t, groupSize)
			return db
		}, accessSQL, func(on bool) PlanHint { return PlanHint{FullScan: on} }},
	}
	for _, suite := range suites {
		for _, shape := range tablestore.Shapes {
			for _, reopened := range []bool{false, true} {
				name := suite.name + "/" + shape.Name + "/built"
				if reopened {
					name = suite.name + "/" + shape.Name + "/reopened"
				}
				t.Run(name, func(t *testing.T) {
					db := suite.open(t, shape.GroupSize)
					if reopened {
						db = reopenDB(t, db)
					}
					s := db.NewSession(newFakeSheets())
					for _, q := range suite.queries {
						db.SetPlanHint(suite.ref(true))
						want := mustExec(t, s, q)
						for _, on := range []bool{true, false} {
							db.SetPlanHint(suite.ref(on))
							if diff := resultsEqual(want, streamResult(t, s, q)); diff != "" {
								t.Errorf("%s (reference path %v): streamed rows diverge from the materialised result: %s", q, on, diff)
							}
						}
					}
				})
			}
		}
	}
}

// TestParallelCancelReleasesPins runs every golden query under an already
// cancelled context. Each of them pushes at least ctxCheckInterval rows
// through some loop of every stage it has (scan, build, probe, fold,
// projection all poll), so each must stop with context.Canceled at any
// puller count — and whichever stage it stopped in, the error path must
// have released every snapshot the statement pinned.
func TestParallelCancelReleasesPins(t *testing.T) {
	db := newParDB(t, 2)
	sess := db.NewSession(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		db.SetPlanHint(PlanHint{Workers: workers})
		for _, q := range parGoldenQueries {
			if _, err := sess.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
				t.Errorf("%d workers %s: err = %v, want context.Canceled", workers, q, err)
			}
			if pinned, retained := db.EpochStats(); pinned != 0 || retained != 0 {
				t.Fatalf("%d workers %s: EpochStats = (%d, %d) after the cancelled query, want (0, 0)", workers, q, pinned, retained)
			}
		}
	}
}

// TestParallelWorkersConfig pins the worker-pool sizing rules.
func TestParallelWorkersConfig(t *testing.T) {
	db := NewDatabase(Config{Workers: 3})
	if got := db.parWorkers(); got != 3 {
		t.Fatalf("parWorkers = %d, want 3", got)
	}
	db.SetPlanHint(PlanHint{Workers: 7})
	if got := db.parWorkers(); got != 7 {
		t.Fatalf("parWorkers under PlanHint{Workers: 7} = %d, want 7", got)
	}
	db.SetPlanHint(PlanHint{})
	if got := db.parWorkers(); got != 3 {
		t.Fatalf("parWorkers under the zero PlanHint = %d, want Config value 3", got)
	}
	if got := NewDatabase(Config{}).parWorkers(); got < 1 {
		t.Fatalf("default parWorkers = %d, want >= 1", got)
	}
}
