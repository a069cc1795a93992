package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// The tests in this file hold one invariant: once its transaction has
// ended, a statement's effects are live if and only if the statement reaches
// the WAL. They compare the live instance against a crash copy (the heap
// and WAL as a crash at that instant would leave them), reopened.

// dumpDB renders every table's schema, its secondary indexes and its rows
// in scan order. Indexes are sorted: a rolled-back DROP INDEX re-creates the
// index last, so index order is not part of the state compared. It also
// fails unless a bare COUNT(*), which answers from the store's row count
// instead of scanning, equals the rows the scan returned.
func dumpDB(t *testing.T, ds *DataSpread) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range ds.db.Tables() {
		fmt.Fprintf(&b, "table %s (", tbl.Name)
		for _, c := range tbl.Columns {
			fmt.Fprintf(&b, "%s %s notnull=%v pk=%v default=%q, ", c.Name, c.Type, c.NotNull, c.PrimaryKey, c.Default.String())
		}
		b.WriteString(")\n")
		var idx []string
		for _, d := range ds.db.Indexes(tbl.Name) {
			idx = append(idx, fmt.Sprintf("index %s %v unique=%v\n", d.Name, d.Columns, d.Unique))
		}
		slices.Sort(idx)
		b.WriteString(strings.Join(idx, ""))
		res, err := ds.Query("SELECT * FROM " + tbl.Name)
		if err != nil {
			t.Fatalf("dump %s: %v", tbl.Name, err)
		}
		for _, r := range res.Rows {
			fmt.Fprintln(&b, r)
		}
		count, err := ds.Query("SELECT COUNT(*) FROM " + tbl.Name)
		if err != nil {
			t.Fatalf("count %s: %v", tbl.Name, err)
		}
		if got, want := count.Rows[0][0], sheet.Number(float64(len(res.Rows))); got != want {
			t.Fatalf("%s: SELECT COUNT(*) = %v, the scan returned %d rows", tbl.Name, got, len(res.Rows))
		}
	}
	return b.String()
}

// crashDump reopens a crash copy of the live workbook at path and dumps it,
// failing on any recovery error: every logged statement must replay.
func crashDump(t *testing.T, path string) string {
	t.Helper()
	dir := filepath.Join(filepath.Dir(path), "crash")
	re, err := OpenFile(copyWorkbook(t, path, dir), Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatalf("open crash copy: %v", err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("crash copy recovery errors: %v", errs)
	}
	return dumpDB(t, re)
}

// liveMatchesLog fails unless the live state equals the crash copy's and
// returns the dump.
func liveMatchesLog(t *testing.T, ds *DataSpread, path, when string) string {
	t.Helper()
	live, logged := dumpDB(t, ds), crashDump(t, path)
	if live != logged {
		t.Fatalf("%s: live state differs from the log\nlive:\n%s\nlog:\n%s", when, live, logged)
	}
	return live
}

func openLiveLog(t *testing.T) (*DataSpread, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ds.Close() })
	if _, err := ds.QueryScript(`
		CREATE TABLE t (id INT PRIMARY KEY, v INT);
		CREATE TABLE u (x INT);
		INSERT INTO t VALUES (1, 1), (2, 2), (3, 3);`); err != nil {
		t.Fatal(err)
	}
	return ds, path
}

func mustQuery(t *testing.T, ds *DataSpread, sql string) {
	t.Helper()
	if _, err := ds.Query(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestFailedStatementLeavesNoTrace: a statement that fails part-way — after
// it has moved or inserted rows — leaves the live state as it was, in
// autocommit and inside a transaction, and a checkpoint cannot make its
// partial effect durable.
func TestFailedStatementLeavesNoTrace(t *testing.T) {
	ds, path := openLiveLog(t)
	want := liveMatchesLog(t, ds, path, "setup")
	for _, sql := range []string{
		"UPDATE t SET id = 100 WHERE id < 5",
		"INSERT INTO t VALUES (7, 7), (8, 8), (7, 9)",
	} {
		if _, err := ds.Query(sql); !errors.Is(err, dberr.ErrUniqueViolation) {
			t.Fatalf("%s = %v, want ErrUniqueViolation", sql, err)
		}
		if got := liveMatchesLog(t, ds, path, sql); got != want {
			t.Fatalf("%s: failed statement changed the state:\n%s\nwant:\n%s", sql, got, want)
		}
	}
	mustQuery(t, ds, "BEGIN")
	if _, err := ds.Query("UPDATE t SET id = 100 WHERE id < 5"); !errors.Is(err, dberr.ErrUniqueViolation) {
		t.Fatalf("in transaction: %v, want ErrUniqueViolation", err)
	}
	mustQuery(t, ds, "COMMIT")
	if got := liveMatchesLog(t, ds, path, "COMMIT"); got != want {
		t.Fatalf("after COMMIT:\n%s\nwant:\n%s", got, want)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, path)
	defer re.Close()
	if got := dumpDB(t, re); got != want {
		t.Fatalf("after checkpoint and reopen:\n%s\nwant:\n%s", got, want)
	}
}

// TestRollbackUndoesSchemaChanges: ROLLBACK reverses every schema change a
// transaction accepted, and DROP COLUMN and DROP TABLE, which cannot be
// reversed, are refused without effect and leave the transaction open.
func TestRollbackUndoesSchemaChanges(t *testing.T) {
	ds, path := openLiveLog(t)
	mustQuery(t, ds, "CREATE INDEX t_v ON t (v)")
	want := liveMatchesLog(t, ds, path, "setup")
	mustQuery(t, ds, "BEGIN")
	for _, sql := range []string{"ALTER TABLE t DROP COLUMN v", "DROP TABLE u", "DROP TABLE IF EXISTS u"} {
		if _, err := ds.Query(sql); !errors.Is(err, dberr.ErrUnsupported) {
			t.Fatalf("%s inside a transaction = %v, want ErrUnsupported", sql, err)
		}
	}
	if got := dumpDB(t, ds); got != want || !ds.conn.InTransaction() {
		t.Fatal("a refused statement must change nothing and leave the transaction open")
	}
	for _, sql := range []string{
		"CREATE INDEX t_id2 ON t (id)",
		"ALTER TABLE t RENAME COLUMN v TO w",
		"DROP INDEX t_v",
		"CREATE UNIQUE INDEX t_w ON t (w)",
		"ALTER TABLE t ADD COLUMN z INT DEFAULT 5",
		"UPDATE t SET z = 0",
		"CREATE TABLE d (k INT PRIMARY KEY)",
		"INSERT INTO d VALUES (1)",
	} {
		mustQuery(t, ds, sql)
	}
	mustQuery(t, ds, "ROLLBACK")
	if got := liveMatchesLog(t, ds, path, "ROLLBACK"); got != want {
		t.Fatalf("after ROLLBACK:\n%s\nwant:\n%s", got, want)
	}
}

// TestRollbackCreateTableAsSelect: the table a rolled-back CREATE TABLE ... AS
// SELECT made is gone, and the ROLLBACK reports no error.
func TestRollbackCreateTableAsSelect(t *testing.T) {
	ds, path := openLiveLog(t)
	want := liveMatchesLog(t, ds, path, "setup")
	mustQuery(t, ds, "BEGIN")
	mustQuery(t, ds, "CREATE TABLE c AS SELECT id FROM t")
	if _, err := ds.Query("ROLLBACK"); err != nil {
		t.Fatalf("ROLLBACK: %v", err)
	}
	if got := liveMatchesLog(t, ds, path, "ROLLBACK"); got != want {
		t.Fatalf("after ROLLBACK:\n%s\nwant:\n%s", got, want)
	}
}

// TestRolledBackDeleteReplays: a rolled-back DELETE leaves its row where it
// was, so a statement whose outcome depends on scan order has the same
// outcome live as on replay. The key move below visits (1,1) before (2,2)
// and collides; had id 1 come back behind 2, it would succeed live while
// replay, which never saw the DELETE, fails.
func TestRolledBackDeleteReplays(t *testing.T) {
	ds, path := openLiveLog(t)
	for _, sql := range []string{"DELETE FROM t WHERE id = 3", "BEGIN", "DELETE FROM t WHERE id = 1", "ROLLBACK"} {
		mustQuery(t, ds, sql)
	}
	if _, err := ds.Query("UPDATE t SET id = id + 1"); !errors.Is(err, dberr.ErrUniqueViolation) {
		t.Fatalf("key move = %v, want ErrUniqueViolation", err)
	}
	live := liveMatchesLog(t, ds, path, "key move after ROLLBACK")
	if !strings.Contains(live, ")\n[1 1]\n[2 2]\ntable u") {
		t.Fatalf("after the key move:\n%s\nwant t's rows [1 1] and [2 2] in scan order", live)
	}
}

// TestFailedUndoDegradesWorkbook: when a ROLLBACK cannot reverse a change,
// live state matches no log, so the workbook degrades to read-only. A second
// session can no longer make the undo of A's DELETE fail: while A's
// transaction owns the tables, B's write that would (re-insert the key, drop
// the table, or drop and re-create it) fails with ErrConflict and changes
// nothing, and A's ROLLBACK succeeds. A failed page write during the unwind
// still can: the ROLLBACK fails with ErrUndo and later writes are refused.
func TestFailedUndoDegradesWorkbook(t *testing.T) {
	for name, meanwhile := range map[string][]string{
		"key taken":  {"INSERT INTO t VALUES (2, 20)"},
		"dropped":    {"DROP TABLE t"},
		"re-created": {"DROP TABLE t", "CREATE TABLE t (id INT PRIMARY KEY, v INT)"},
	} {
		t.Run(name, func(t *testing.T) {
			ds, path := openLiveLog(t)
			want := liveMatchesLog(t, ds, path, "setup")
			ctx := t.Context()
			a, b := ds.NewConn(), ds.NewConn()
			for _, sql := range []string{"BEGIN", "DELETE FROM t WHERE id = 2"} {
				if _, err := a.QueryContext(ctx, sql); err != nil {
					t.Fatalf("A %s: %v", sql, err)
				}
			}
			during := dumpDB(t, ds)
			for _, sql := range meanwhile {
				if _, err := b.QueryContext(ctx, sql); !errors.Is(err, dberr.ErrConflict) {
					t.Fatalf("B %s while A owns the tables = %v, want ErrConflict", sql, err)
				}
			}
			if got := dumpDB(t, ds); got != during {
				t.Fatalf("B's refused writes changed the state:\n%s\nwant:\n%s", got, during)
			}
			if _, err := a.QueryContext(ctx, "ROLLBACK"); err != nil {
				t.Fatalf("ROLLBACK = %v, want nil", err)
			}
			if got := liveMatchesLog(t, ds, path, "ROLLBACK"); got != want || ds.Health() != nil {
				t.Fatalf("after ROLLBACK (Health %v):\n%s\nwant:\n%s", ds.Health(), got, want)
			}
		})
	}
	t.Run("page write fails", func(t *testing.T) {
		ffs := vfs.NewFaultFS(nil)
		noCache := 0
		ds, err := OpenFile(filepath.Join(t.TempDir(), "book.dsp"), Options{FS: ffs, BufferPoolPages: &noCache, CheckpointWALBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		for _, sql := range []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 1), (2, 2)", "BEGIN", "UPDATE t SET v = 20 WHERE id = 2"} {
			mustQuery(t, ds, sql)
		}
		ffs.SetFault(vfs.Fault{Kind: vfs.OpWrite, PathSuffix: ".dsp", Err: syscall.EIO})
		if _, err := ds.Query("ROLLBACK"); !errors.Is(err, sqlexec.ErrUndo) {
			t.Fatalf("ROLLBACK = %v, want ErrUndo", err)
		}
		if err := ds.Health(); !errors.Is(err, dberr.ErrReadOnly) {
			t.Fatalf("Health after a failed undo = %v, want ErrReadOnly", err)
		}
		if _, err := ds.Query("INSERT INTO t VALUES (3, 3)"); !errors.Is(err, dberr.ErrReadOnly) {
			t.Fatalf("write after a failed undo = %v, want ErrReadOnly", err)
		}
	})
}

// liveLogGen draws single-session statements over table t, whose primary
// key and UNIQUE secondary index make multi-row statements fail part-way,
// plus every kind of schema change. It reads the live schema before each
// draw, so most statements name columns that exist.
type liveLogGen struct {
	rng *rand.Rand
	ds  *DataSpread
	n   int // name counter for new columns, indexes and tables
}

func (g *liveLogGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// columns returns t's key column, its other columns, and those of them that
// DROP COLUMN may draw: every one but the column of t_u, which is never
// dropped, so that unique violations stay possible.
func (g *liveLogGen) columns() (key string, rest, droppable []string) {
	tbl, err := g.ds.db.Table("t")
	if err != nil {
		return "id", nil, nil
	}
	unique := ""
	for _, d := range g.ds.db.Indexes("t") {
		if d.Name == "t_u" {
			unique = d.Columns[0]
		}
	}
	for _, c := range tbl.Columns {
		switch {
		case c.PrimaryKey:
			key = c.Name
		case c.Name == unique:
			rest = append(rest, c.Name)
		default:
			rest = append(rest, c.Name)
			droppable = append(droppable, c.Name)
		}
	}
	return key, rest, droppable
}

func (g *liveLogGen) value() string {
	if g.rng.Intn(25) == 0 {
		return "'x'" // a type mismatch for every INT column
	}
	return fmt.Sprint(g.rng.Intn(12))
}

func (g *liveLogGen) keyRange(key string) string {
	lo := g.rng.Intn(12)
	return fmt.Sprintf("%s BETWEEN %d AND %d", key, lo, lo+g.rng.Intn(4))
}

func (g *liveLogGen) sideTables() []string {
	var out []string
	for _, tbl := range g.ds.db.Tables() {
		if tbl.Name != "t" {
			out = append(out, tbl.Name)
		}
	}
	return out
}

func (g *liveLogGen) statement() string {
	key, rest, droppable := g.columns()
	g.n++
	switch r := g.rng.Intn(100); {
	case r < 25: // one to four rows, which may repeat a key or a unique value
		tbl, _ := g.ds.db.Table("t")
		rows := make([]string, 1+g.rng.Intn(4))
		for i := range rows {
			vals := make([]string, len(tbl.Columns))
			for j := range vals {
				vals[j] = g.value()
			}
			rows[i] = "(" + strings.Join(vals, ", ") + ")"
		}
		return "INSERT INTO t VALUES " + strings.Join(rows, ", ")
	case r < 30:
		return fmt.Sprintf("INSERT INTO t (%s) SELECT %s + %d FROM t WHERE %s", key, key, 1+g.rng.Intn(12), g.keyRange(key))
	case r < 36: // fails part-way whenever the range holds two rows
		return fmt.Sprintf("UPDATE t SET %s = %d WHERE %s", key, g.rng.Intn(14), g.keyRange(key))
	case r < 40: // succeeds or fails by the order the rows are visited in
		return fmt.Sprintf("UPDATE t SET %s = %s + %d WHERE %s", key, key, 1+g.rng.Intn(3), g.keyRange(key))
	case r < 55 && len(rest) > 0:
		return fmt.Sprintf("UPDATE t SET %s = %s WHERE %s", g.pick(rest), g.value(), g.keyRange(key))
	case r < 65:
		return fmt.Sprintf("DELETE FROM t WHERE %s", g.keyRange(key))
	case r < 70:
		return fmt.Sprintf("ALTER TABLE t ADD COLUMN c%d INT DEFAULT %d", g.n, g.rng.Intn(3))
	case r < 74 && len(droppable) > 0:
		return fmt.Sprintf("ALTER TABLE t DROP COLUMN %s", g.pick(droppable))
	case r < 79 && len(rest) > 0:
		return fmt.Sprintf("ALTER TABLE t RENAME COLUMN %s TO r%d", g.pick(rest), g.n)
	case r < 84 && len(rest) > 0:
		unique := ""
		if g.rng.Intn(2) == 0 {
			unique = "UNIQUE "
		}
		return fmt.Sprintf("CREATE %sINDEX i%d ON t (%s)", unique, g.n, g.pick(rest))
	case r < 88:
		var names []string
		for _, d := range g.ds.db.AllIndexes() {
			if d.Name != "t_u" {
				names = append(names, d.Name)
			}
		}
		if len(names) > 0 {
			return "DROP INDEX " + g.pick(names)
		}
		return "DROP INDEX IF EXISTS i0"
	case r < 92:
		return fmt.Sprintf("CREATE TABLE s%d AS SELECT %s FROM t WHERE %s", g.n, strings.Join(append([]string{key}, rest...), ", "), g.keyRange(key))
	case r < 94:
		return fmt.Sprintf("CREATE TABLE s%d (a INT PRIMARY KEY, b INT)", g.n)
	case r < 97:
		if side := g.sideTables(); len(side) > 0 {
			return "DROP TABLE " + g.pick(side)
		}
		return "DROP TABLE IF EXISTS s0"
	default:
		return fmt.Sprintf("DELETE FROM t WHERE %s", key+" = "+g.value())
	}
}

// script joins one to four drawn statements into a script. With control,
// each part may instead be BEGIN, COMMIT or ROLLBACK.
func (g *liveLogGen) script(control bool) string {
	parts := make([]string, 1+g.rng.Intn(4))
	for i := range parts {
		if control && g.rng.Intn(3) == 0 {
			parts[i] = g.pick([]string{"BEGIN", "COMMIT", "ROLLBACK"})
		} else {
			parts[i] = g.statement()
		}
	}
	return strings.Join(parts, "; ")
}

// TestLiveMatchesLogFuzz drives seeded histories of the built-in Conn:
// autocommit statements, scripts that may open, commit or roll back
// transactions, and BEGIN ... COMMIT/ROLLBACK runs of statements and
// scripts, many of which fail part-way or are refused, with checkpoints
// between and inside them and a second Conn writing inside them. After every
// step outside a transaction the live state must equal a reopened crash
// copy. Inside one, a failed statement must leave the live state as it was;
// once the transaction has written, a checkpoint must fail with ErrConflict
// and leave the log holding only committed state, and the second Conn's
// write must fail with ErrConflict and change nothing. At the end a clean
// reopen must equal the live state too.
func TestLiveMatchesLogFuzz(t *testing.T) {
	seeds, steps := []int64{1, 2, 3, 4, 5, 6}, 100
	if raceEnabled {
		seeds = seeds[:3]
	}
	start := time.Now()
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "book.dsp")
			ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ds.Close() }()
			if _, err := ds.QueryScript(`
				CREATE TABLE t (id INT PRIMARY KEY, u INT, v INT);
				CREATE UNIQUE INDEX t_u ON t (u);
				INSERT INTO t VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3), (5, 5, 5), (8, 8, 8);`); err != nil {
				t.Fatal(err)
			}
			g := &liveLogGen{rng: rand.New(rand.NewSource(seed)), ds: ds}
			other := ds.NewConn()
			var history []string
			note := func(what string, err error) error {
				history = append(history, fmt.Sprintf("%s -> %v", what, err))
				return err
			}
			exec := func(sql string) error {
				_, err := ds.Query(sql)
				return note(sql, err)
			}
			script := func(sql string) error {
				_, err := ds.QueryScript(sql)
				return note("script "+sql, err)
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("after:\n%s\n"+format, append([]any{strings.Join(history, "\n")}, args...)...)
			}
			// checkpoint checkpoints inside a transaction that has written
			// (owned) or outside one or inside one that has not.
			checkpoint := func(owned bool) {
				t.Helper()
				err := note("checkpoint", ds.Checkpoint())
				if owned && !errors.Is(err, dberr.ErrConflict) || !owned && err != nil {
					fail("checkpoint = %v, want ErrConflict only inside a transaction that has written", err)
				}
			}
			end := func() {
				t.Helper()
				sql := g.pick([]string{"COMMIT", "ROLLBACK"})
				if err := exec(sql); err != nil {
					fail("%s: %v", sql, err)
				}
			}
			check := func() {
				t.Helper()
				if live, logged := dumpDB(t, ds), crashDump(t, path); live != logged {
					fail("live state differs from the log\nlive:\n%s\nlog:\n%s", live, logged)
				}
			}
			for step := 0; step < steps; step++ {
				switch r := g.rng.Intn(20); {
				case r < 2:
					checkpoint(false)
				case r < 10:
					_ = exec(g.statement())
				case r < 12:
					// A transaction the script leaves open ends here.
					_ = script(g.script(true))
					if ds.conn.InTransaction() {
						end()
					}
				default:
					committed := dumpDB(t, ds)
					if err := exec("BEGIN"); err != nil {
						t.Fatal(err)
					}
					wrote := false
					for k := 1 + g.rng.Intn(5); k > 0; k-- {
						before := dumpDB(t, ds)
						switch r := g.rng.Intn(10); {
						case r == 0:
							checkpoint(wrote)
							if logged := crashDump(t, path); logged != committed {
								fail("the log differs from the committed state\nlog:\n%s\ncommitted:\n%s", logged, committed)
							}
						case r == 1:
							sql := g.statement()
							_, err := other.QueryContext(t.Context(), sql)
							note("other Conn: "+sql, err)
							if !wrote {
								committed = dumpDB(t, ds)
							} else if !errors.Is(err, dberr.ErrConflict) {
								fail("another Conn's write inside a transaction that has written = %v, want ErrConflict", err)
							} else if after := dumpDB(t, ds); after != before {
								fail("a refused write changed the live state\nbefore:\n%s\nafter:\n%s", before, after)
							}
						case r == 2:
							_ = script(g.script(false))
							wrote = true
						default:
							err := exec(g.statement())
							wrote = true
							if after := dumpDB(t, ds); err != nil && after != before {
								fail("a failed statement changed the live state\nbefore:\n%s\nafter:\n%s", before, after)
							}
						}
					}
					end()
				}
				check()
			}
			failed, refused := 0, 0
			for _, h := range history {
				if !strings.HasSuffix(h, "-> <nil>") {
					failed++
				}
				if strings.Contains(h, dberr.ErrConflict.Error()) {
					refused++
				}
			}
			t.Logf("%d steps, %d failed, %d of them with ErrConflict", len(history), failed, refused)
			live := dumpDB(t, ds)
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			re := openDurable(t, path)
			defer re.Close()
			if got := dumpDB(t, re); got != live {
				fail("clean reopen differs from the live state\nlive:\n%s\nreopen:\n%s", live, got)
			}
		})
	}
	t.Logf("%d seeds in %v", len(seeds), time.Since(start))
}
