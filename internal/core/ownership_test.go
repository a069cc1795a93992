package core

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/txn"
)

// The tests in this file hold a transaction to be one unit for checkpoints,
// replay and other writers: from its first mutating statement to its end it
// owns the tables, so no other writer and no checkpoint capture interleaves
// with it.

// openOwned opens a durable workbook holding t(id INT PRIMARY KEY, v INT)
// with the given rows.
func openOwned(t *testing.T, opts Options, rows string) (*DataSpread, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ds.Close() })
	if _, err := ds.QueryScript("CREATE TABLE t (id INT PRIMARY KEY, v INT); INSERT INTO t VALUES " + rows); err != nil {
		t.Fatal(err)
	}
	return ds, path
}

// run executes statements on c, failing the test on the first error.
func run(t *testing.T, c *Conn, stmts ...string) {
	t.Helper()
	for _, sql := range stmts {
		if _, err := c.QueryContext(t.Context(), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// number returns the single value sql reads from ds.
func number(t *testing.T, ds *DataSpread, sql string) float64 {
	t.Helper()
	res, err := ds.Query(sql)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("%s = %v, %v", sql, res, err)
	}
	return res.Rows[0][0].Num
}

// reopened reads sql from a reopen of the workbook at path, failing on any
// recovery error: from a crash copy of the files as they are now, or, with
// crash false, from the files themselves after ds is closed.
func reopened(t *testing.T, ds *DataSpread, path, sql string, crash bool) float64 {
	t.Helper()
	if crash {
		path = copyWorkbook(t, path, filepath.Join(t.TempDir(), "crash"))
	} else if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("recovery errors: %v", errs)
	}
	return number(t, re, sql)
}

// checkpointGen returns the generation of the workbook's durable root.
func checkpointGen(ds *DataSpread) uint64 {
	ds.ckptMu.Lock()
	defer ds.ckptMu.Unlock()
	return ds.root.gen
}

// TestUncommittedWriteNotCheckpointed (probe 2): a checkpoint taken while B's
// transaction has written leaves B's uncommitted UPDATE out of the files.
func TestUncommittedWriteNotCheckpointed(t *testing.T) {
	ds, path := openOwned(t, Options{CheckpointWALBytes: -1},
		"(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1)")
	b := ds.NewConn()
	run(t, b, "BEGIN", "UPDATE t SET v = 7 WHERE id = 6")
	err := ds.Checkpoint()
	if got := reopened(t, ds, path, "SELECT SUM(v) FROM t", true); got != 10 {
		t.Fatalf("crash copy SUM(v) = %v, want the committed 10", got)
	}
	if !errors.Is(err, dberr.ErrConflict) {
		t.Fatalf("Checkpoint inside B's transaction = %v, want ErrConflict", err)
	}
}

// TestCheckpointInTransactionRefused (probe 3): an explicit checkpoint inside
// a transaction that has written is refused, so its COMMIT, logged after it,
// is not replayed onto pages that already hold the transaction's changes.
func TestCheckpointInTransactionRefused(t *testing.T) {
	ds, path := openOwned(t, Options{CheckpointWALBytes: -1}, "(7, 1), (8, 1)")
	c := ds.NewConn()
	run(t, c, "BEGIN", "UPDATE t SET v = v + 1 WHERE id = 7", "INSERT INTO t VALUES (9, 1)")
	if err := ds.Checkpoint(); !errors.Is(err, dberr.ErrConflict) {
		t.Fatalf("Checkpoint inside the transaction = %v, want ErrConflict", err)
	}
	run(t, c, "COMMIT")
	const v7 = "SELECT v FROM t WHERE id = 7"
	if live, crash := number(t, ds, v7), reopened(t, ds, path, v7, true); live != 2 || crash != 2 {
		t.Fatalf("v = %v live, %v in a crash copy; want 2", live, crash)
	}
	if got := reopened(t, ds, path, v7, false); got != 2 {
		t.Fatalf("v = %v after Close and reopen, want 2", got)
	}
}

// TestBackgroundCheckpointDefersToTransaction (probe 3, background): cell
// writes, which still log while a transaction is open, push the WAL past the
// threshold, but the background checkpointer captures nothing until the
// transaction commits, and a reopen reads the committed v = 2.
func TestBackgroundCheckpointDefersToTransaction(t *testing.T) {
	ds, path := openOwned(t, Options{CheckpointWALBytes: 64 << 10}, "(7, 1), (8, 1)")
	c := ds.NewConn()
	run(t, c, "BEGIN", "UPDATE t SET v = v + 1 WHERE id = 7", "INSERT INTO t VALUES (9, 1)")
	gen := checkpointGen(ds)
	cells := make([][]sheet.Value, 80)
	for i := range cells {
		cells[i] = []sheet.Value{sheet.String_(strings.Repeat("x", 1<<10))}
	}
	if err := ds.SetValues("Sheet1", "A1", cells); err != nil {
		t.Fatal(err)
	}
	if ds.wal.LogSize() < 64<<10 {
		t.Fatalf("WAL holds %d bytes, below the checkpoint threshold", ds.wal.LogSize())
	}
	// The trigger channel holds one nudge. The first send returns once the
	// checkpointer has taken the nudge SetValues left, the second once it
	// has finished the run that nudge started.
	ds.ckptTrigger <- struct{}{}
	ds.ckptTrigger <- struct{}{}
	if got := checkpointGen(ds); got != gen {
		t.Fatalf("a background checkpoint captured the open transaction (root generation %d, was %d)", got, gen)
	}
	if err := ds.Health(); err != nil {
		t.Fatalf("a deferred checkpoint reported %v", err)
	}
	run(t, c, "COMMIT")
	for deadline := time.Now().Add(10 * time.Second); checkpointGen(ds) == gen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint after COMMIT")
		}
	}
	ds.stopCheckpointer() // a crash copy reads the heap, then the WAL
	const v7 = "SELECT v FROM t WHERE id = 7"
	if crash := reopened(t, ds, path, v7, true); crash != 2 {
		t.Fatalf("v = %v in a crash copy, want 2", crash)
	}
	if got := reopened(t, ds, path, v7, false); got != 2 {
		t.Fatalf("v = %v after Close and reopen, want 2", got)
	}
}

// TestConcurrentWriterConflicts (probe 4): while A's transaction owns the
// tables, B's UPDATE fails at once with ErrConflict and changes nothing, so
// A's ROLLBACK restores v = 1 without undoing a write of B's.
func TestConcurrentWriterConflicts(t *testing.T) {
	ds, path := openOwned(t, Options{CheckpointWALBytes: -1}, "(7, 1)")
	a, b := ds.NewConn(), ds.NewConn()
	run(t, a, "BEGIN", "UPDATE t SET v = 10 WHERE id = 7")
	run(t, b, "BEGIN")
	if _, err := b.QueryContext(t.Context(), "UPDATE t SET v = 20 WHERE id = 7"); !errors.Is(err, dberr.ErrConflict) {
		t.Fatalf("B's UPDATE while A owns the tables = %v, want ErrConflict", err)
	}
	const v7 = "SELECT v FROM t WHERE id = 7"
	if got := number(t, ds, v7); got != 10 {
		t.Fatalf("v = %v after B's refused UPDATE, want A's 10", got)
	}
	run(t, b, "COMMIT")
	run(t, a, "ROLLBACK")
	if live := number(t, ds, v7); live != 1 || ds.Health() != nil {
		t.Fatalf("v = %v live (Health %v), want 1", live, ds.Health())
	}
	// With A's transaction over, B writes again.
	run(t, b, "UPDATE t SET v = 1 WHERE id = 7")
	if got := reopened(t, ds, path, v7, false); got != 1 {
		t.Fatalf("v = %v after reopen, want 1", got)
	}
}

// TestTableWritersConflictCellWritesProceed: while a transaction owns the
// tables, an edit of a cell bound to a table and an export of a range to a
// table fail with ErrConflict and change nothing, while writes that touch no
// table proceed.
func TestTableWritersConflictCellWritesProceed(t *testing.T) {
	ds, path := openOwned(t, Options{CheckpointWALBytes: -1}, "(7, 1)")
	if _, err := ds.ImportTable("Sheet1", "A1", "t"); err != nil {
		t.Fatal(err)
	}
	c := ds.NewConn()
	run(t, c, "BEGIN", "INSERT INTO t VALUES (8, 1)")
	if _, err := ds.SetCell("Sheet1", "B2", "5"); !errors.Is(err, dberr.ErrConflict) {
		t.Fatalf("bound cell edit = %v, want ErrConflict", err)
	}
	mustSet(t, ds, "Sheet1", "E1", "n")
	mustSet(t, ds, "Sheet1", "E2", "3")
	if _, err := ds.CreateTableFromRange("Sheet1", "E1:E2", "x", ExportOptions{KeepRegion: true}); !errors.Is(err, dberr.ErrConflict) {
		t.Fatalf("export = %v, want ErrConflict", err)
	}
	if _, err := ds.AddSheet("Other"); err != nil {
		t.Fatalf("AddSheet inside another session's transaction: %v", err)
	}
	run(t, c, "ROLLBACK")
	if _, err := ds.db.Table("x"); err == nil {
		t.Fatal("the refused export created its table")
	}
	live := liveMatchesLog(t, ds, path, "ROLLBACK")
	if !strings.Contains(live, "[7 1]\n") || strings.Contains(live, "[7 5]") || strings.Contains(live, "[8 1]") {
		t.Fatalf("after ROLLBACK:\n%s\nwant only (7, 1)", live)
	}
	if got, err := ds.Get("Sheet1", "E2"); err != nil || got.Num != 3 {
		t.Fatalf("E2 = %v, %v; want 3", got, err)
	}
}

// TestScriptJoinsOpenTransaction: a script run while the built-in Conn has a
// transaction open belongs to it, so ROLLBACK takes the script's INSERT back
// live and in the log alike, and COMMIT logs it.
func TestScriptJoinsOpenTransaction(t *testing.T) {
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		t.Run(end, func(t *testing.T) {
			ds, path := openLiveLog(t)
			mustQuery(t, ds, "BEGIN")
			if _, err := ds.QueryScript("INSERT INTO t VALUES (50, 50)"); err != nil {
				t.Fatal(err)
			}
			mustQuery(t, ds, end)
			live := liveMatchesLog(t, ds, path, end)
			if got := strings.Contains(live, "[50 50]"); got != (end == "COMMIT") {
				t.Fatalf("after %s:\n%s", end, live)
			}
		})
	}
}

// TestScriptTransactionControl: BEGIN, COMMIT and ROLLBACK inside a script
// scope its statements as they would one at a time: what the script leaves
// open reaches the log only at COMMIT, what it rolls back never does, and
// what it commits does at once.
func TestScriptTransactionControl(t *testing.T) {
	ds, path := openLiveLog(t)
	want := liveMatchesLog(t, ds, path, "setup")
	if _, err := ds.QueryScript("BEGIN; INSERT INTO t VALUES (50, 50)"); err != nil {
		t.Fatal(err)
	}
	if !ds.Conn().InTransaction() {
		t.Fatal("the script's transaction is not open after it")
	}
	mustQuery(t, ds, "ROLLBACK")
	if got := liveMatchesLog(t, ds, path, "ROLLBACK"); got != want {
		t.Fatalf("after ROLLBACK:\n%s\nwant:\n%s", got, want)
	}
	if _, err := ds.QueryScript(`INSERT INTO t VALUES (60, 60); BEGIN; INSERT INTO t VALUES (61, 61);
		ROLLBACK; BEGIN; INSERT INTO t VALUES (62, 62); COMMIT; INSERT INTO u VALUES (63)`); err != nil {
		t.Fatal(err)
	}
	live := liveMatchesLog(t, ds, path, "script")
	for _, row := range []string{"[60 60]", "[62 62]", "[63]"} {
		if !strings.Contains(live, row) {
			t.Fatalf("script lost %s:\n%s", row, live)
		}
	}
	if strings.Contains(live, "[61 61]") {
		t.Fatalf("the script's rolled-back row is live:\n%s", live)
	}
}

// TestLegacyScriptRecordReplays: a WAL written before scripts logged their
// statements one by one holds whole-script records; they still replay, as
// committed. A script that opened a transaction and did not end it was
// logged as committed too: after replay the built-in Conn is outside any
// transaction, the record after it does not join one, and other Conns'
// writes, checkpoints and the built-in Conn's own writes proceed and last.
func TestLegacyScriptRecordReplays(t *testing.T) {
	ds, path := openLiveLog(t)
	legacy := func(script string) txn.Op {
		return txn.Op{Kind: txn.OpSQLScript, Detail: script, Args: []string{script}}
	}
	for _, op := range []txn.Op{
		legacy("INSERT INTO t VALUES (60, 60); UPDATE t SET v = 61 WHERE id = 60"),
		legacy("BEGIN; INSERT INTO t VALUES (70, 70)"),
		sqlOp("UPDATE t SET v = 71 WHERE id = 70", nil),
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
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("recovery errors: %v", errs)
	}
	if re.Conn().InTransaction() {
		t.Fatal("replay left the built-in Conn inside a transaction")
	}
	if got := number(t, re, "SELECT SUM(v) FROM t WHERE id >= 60"); got != 61+71 {
		t.Fatalf("replayed SUM(v) = %v, want %v", got, 61+71)
	}
	run(t, re.NewConn(), "INSERT INTO t VALUES (80, 80)")
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after replay: %v", err)
	}
	mustQuery(t, re, "INSERT INTO t VALUES (90, 90)")
	if got := reopened(t, re, path, "SELECT SUM(v) FROM t WHERE id >= 60", false); got != 61+71+80+90 {
		t.Fatalf("reopened SUM(v) = %v, want %v", got, 61+71+80+90)
	}
}

// TestConcurrentTransactionsSerialize: Conns on several goroutines run
// two-statement transactions on shared rows, retrying the ones refused with
// ErrConflict, while the background checkpointer runs at a small threshold.
// Every transaction applies whole and once: live, in a crash copy and after
// a reopen.
func TestConcurrentTransactionsSerialize(t *testing.T) {
	const workers, txns = 4, 25
	ds, path := openOwned(t, Options{CheckpointWALBytes: 2 << 10}, "(1, 0), (2, 0), (3, 0)")
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(c *Conn) {
			ctx := context.Background()
			for n := 0; n < txns; {
				if _, err := c.QueryContext(ctx, "BEGIN"); err != nil {
					errs <- err
					return
				}
				_, err := c.QueryContext(ctx, "UPDATE t SET v = v + 1 WHERE id = ?", sheet.Number(float64(1+n%3)))
				if err == nil {
					_, err = c.QueryContext(ctx, "UPDATE t SET v = v + 1 WHERE id = 3")
				}
				end := "COMMIT"
				if err != nil {
					end = "ROLLBACK"
				}
				if _, eerr := c.QueryContext(ctx, end); eerr != nil {
					errs <- eerr
					return
				}
				switch {
				case err == nil:
					n++
				case !errors.Is(err, dberr.ErrConflict):
					errs <- err
					return
				default:
					runtime.Gosched()
				}
			}
			errs <- nil
		}(ds.NewConn())
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A crash copy reads the heap, then the WAL: no checkpoint may land
	// between the two reads.
	ds.stopCheckpointer()
	const sum = "SELECT SUM(v) FROM t"
	if live, crash := number(t, ds, sum), reopened(t, ds, path, sum, true); live != 2*workers*txns || crash != live {
		t.Fatalf("SUM(v) = %v live, %v in a crash copy; want %d", live, crash, 2*workers*txns)
	}
	if got := reopened(t, ds, path, sum, false); got != 2*workers*txns {
		t.Fatalf("SUM(v) = %v after reopen, want %d", got, 2*workers*txns)
	}
}

// TestEmptyScriptDoesNothing: a script of no statements succeeds with a nil
// result, changes nothing and logs no record.
func TestEmptyScriptDoesNothing(t *testing.T) {
	ds, path := openLiveLog(t)
	before, lsn := dumpDB(t, ds), ds.wal.LastLSN()
	for _, script := range []string{"", " ;; "} {
		if res, err := ds.QueryScript(script); err != nil || res != nil {
			t.Fatalf("QueryScript(%q) = %v, %v; want nil, nil", script, res, err)
		}
	}
	if got := ds.wal.LastLSN(); got != lsn {
		t.Fatalf("empty scripts logged records: LSN %d -> %d", lsn, got)
	}
	if got := liveMatchesLog(t, ds, path, "empty scripts"); got != before {
		t.Fatalf("empty scripts changed the state:\n%s\nwant:\n%s", got, before)
	}
}
