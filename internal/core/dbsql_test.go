package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/txn"
)

// The tests in this file hold a DBSQL cell to show the result of one
// SELECT: any other statement is refused before it runs, live and on
// replay, and refreshes run on a read session of their own.

// TestDBSQLCellRefusesWrites: a DBSQL cell holding an INSERT is refused and
// inserts nothing, neither live nor on any reopen after a checkpoint; one
// holding COMMIT, ROLLBACK or BEGIN neither ends nor joins the built-in
// Conn's open transaction, whose COMMIT then logs all it wrote.
func TestDBSQLCellRefusesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, ds, "CREATE TABLE t (x INT)")
	if _, err := ds.SetCell("Sheet1", "A1", `=DBSQL("INSERT INTO t VALUES (5)")`); !errors.Is(err, dberr.ErrUnsupported) {
		t.Fatalf("DBSQL INSERT cell = %v, want ErrUnsupported", err)
	}
	const count = "SELECT COUNT(*) FROM t"
	if got := number(t, ds, count); got != 0 {
		t.Fatalf("live COUNT(*) = %v, want 0", got)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		re, err := OpenFile(path, Options{CheckpointWALBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		errs, got := re.RecoveryErrors(), number(t, re, count)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if len(errs) != 0 || got != 0 {
			t.Fatalf("reopen %d: COUNT(*) = %v, recovery errors %v; want 0 and none", i, got, errs)
		}
	}

	ds, path = openLiveLog(t)
	mustQuery(t, ds, "BEGIN")
	mustQuery(t, ds, "INSERT INTO t VALUES (4, 4)")
	for _, sql := range []string{"COMMIT", "ROLLBACK", "BEGIN"} {
		if _, err := ds.SetCell("Sheet1", "A1", `=DBSQL("`+sql+`")`); !errors.Is(err, dberr.ErrUnsupported) {
			t.Fatalf("DBSQL %s cell = %v, want ErrUnsupported", sql, err)
		}
		if !ds.conn.InTransaction() {
			t.Fatalf("a DBSQL %s cell ended the built-in Conn's transaction", sql)
		}
	}
	mustQuery(t, ds, "COMMIT")
	liveMatchesLog(t, ds, path, "COMMIT")
	if got := reopened(t, ds, path, count, true); got != 4 {
		t.Fatalf("crash copy COUNT(*) = %v, want 4", got)
	}
}

// TestReplayRefusesNonSelectDBSQL: a log written before DBSQL was limited to
// SELECT may hold bindings of other statements. Replay refuses each one —
// reported through RecoveryErrors, never executed — and replays the rest.
func TestReplayRefusesNonSelectDBSQL(t *testing.T) {
	ds, path := openLiveLog(t)
	want := number(t, ds, "SELECT SUM(v) FROM t")
	for _, op := range []txn.Op{
		{Kind: txn.OpBindQuery, Detail: "Sheet1!A1", Args: []string{"Sheet1", "A1", "INSERT INTO t VALUES (50, 50)"}},
		{Kind: txn.OpCellSet, Detail: "Sheet1!C1", Args: []string{"Sheet1", "C1", `=DBSQL("DELETE FROM t")`}},
		{Kind: txn.OpBindQuery, Detail: "Sheet1!E1", Args: []string{"Sheet1", "E1", "SELECT SUM(v) FROM t"}},
	} {
		if err := ds.wal.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = re.Close() })
	errs := re.RecoveryErrors()
	if len(errs) != 2 || !errors.Is(errs[0], dberr.ErrUnsupported) || !errors.Is(errs[1], dberr.ErrUnsupported) {
		t.Fatalf("recovery errors = %v, want two ErrUnsupported", errs)
	}
	if got := number(t, re, "SELECT SUM(v) FROM t"); got != want {
		t.Fatalf("SUM(v) after replay = %v, want %v", got, want)
	}
	if got, err := re.Get("Sheet1", "E2"); err != nil || got.Num != want {
		t.Fatalf("the SELECT binding's spill = %v, %v; want %v", got, err, want)
	}
}

// TestDBSQLRefreshesBesideTransaction (make racecheck): DBSQL refreshes —
// the background recalculation a RANGEVALUE parameter edit starts, and the
// change feed of every transaction the built-in Conn ends — run on their
// own read session while that Conn holds transactions open. No refresh ends
// one, and afterwards every spill equals a direct execution and the live
// state equals the log.
func TestDBSQLRefreshesBesideTransaction(t *testing.T) {
	rows := make([]string, 200)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 1)", i+1)
	}
	ds, path := openOwned(t, Options{CheckpointWALBytes: -1}, strings.Join(rows, ", "))
	mustSet(t, ds, "Sheet1", "A1", "100")
	cells := []struct{ anchor, row, sql string }{
		{"C1", "C2:D2", "SELECT COUNT(*), SUM(v) FROM t WHERE id <= RANGEVALUE(Sheet1!A1)"},
		{"F1", "F2:F2", "SELECT SUM(v) FROM t"},
	}
	for _, c := range cells {
		mustSet(t, ds, "Sheet1", c.anchor, `=DBSQL("`+c.sql+`")`)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // parameter edits; their refreshes run in the background
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := ds.SetCell("Sheet1", "A1", strconv.Itoa(1+i*37%200)); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // the built-in Conn's transactions
		defer wg.Done()
		for i := 0; i < 30; i++ {
			end := []string{"COMMIT", "ROLLBACK"}[i%2]
			for _, sql := range []string{"BEGIN", fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", 1+i*7%200), "SELECT SUM(v) FROM t", end} {
				if _, err := ds.Query(sql); err != nil {
					errs <- fmt.Errorf("%s: %w", sql, err)
					return
				}
				if sql != end && !ds.conn.InTransaction() {
					errs <- fmt.Errorf("the transaction ended after %s", sql)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ds.Wait()
	for _, c := range cells {
		res, err := ds.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.GetRange("Sheet1", c.row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], res.Rows[0]) {
			t.Fatalf("%s spills %v, direct execution %v", c.sql, got[0], res.Rows[0])
		}
	}
	liveMatchesLog(t, ds, path, "after the transactions")
}
