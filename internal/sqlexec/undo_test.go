package sqlexec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

func TestRollbackRunsUndoInReverse(t *testing.T) {
	var log undoLog
	var order []int
	for i := 1; i <= 3; i++ {
		log.push(ChangeEvent{Table: "t", Kind: ChangeKind(i), RowID: tablestore.RowID(i)}, func() error {
			order = append(order, i)
			return nil
		})
	}
	undone, err := log.unwind()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{3, 2, 1}) {
		t.Errorf("undo order = %v, want [3 2 1]", order)
	}
	// The undone changes, newest first: a reversed DELETE is an insert.
	want := []ChangeEvent{{"t", ChangeSchema, 3}, {"t", ChangeInsert, 2}, {"t", ChangeUpdate, 1}}
	if len(undone) != len(want) {
		t.Fatalf("unwind returned %d changes, want %d", len(undone), len(want))
	}
	for i, e := range undone {
		if e.ChangeEvent != want[i] {
			t.Errorf("undone change %d = %v, want %v", i, e.ChangeEvent, want[i])
		}
	}
	if len(log) != 0 {
		t.Error("unwind must empty the log")
	}
	var none *undoLog
	none.push(ChangeEvent{}, func() error { t.Error("a nil log keeps no steps"); return nil })
}

func TestRollbackContinuesPastFailingUndo(t *testing.T) {
	var log undoLog
	older, newer := errors.New("older"), errors.New("newer")
	ran := 0
	log.push(ChangeEvent{}, func() error { ran++; return nil })
	log.push(ChangeEvent{}, func() error { return older })
	log.push(ChangeEvent{}, func() error { ran++; return nil })
	log.push(ChangeEvent{}, func() error { return newer })
	_, err := log.unwind()
	if ran != 2 {
		t.Errorf("steps past a failure must still run, ran = %d", ran)
	}
	if !errors.Is(err, ErrUndo) || !errors.Is(err, dberr.ErrInternal) {
		t.Fatalf("unwind error = %v, want ErrUndo (an ErrInternal)", err)
	}
	if !errors.Is(err, newer) || errors.Is(err, older) {
		t.Errorf("unwind error = %v, want the first failure met (newest step) only", err)
	}
}

func dumpRows(t *testing.T, s *Session, sql string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, s, sql).Rows)
}

// TestStatementCommitsOnSuccessUnwindsOnError: a statement that fails
// part-way leaves nothing behind, in autocommit and inside a transaction,
// while the statements that succeeded stay.
func TestStatementCommitsOnSuccessUnwindsOnError(t *testing.T) {
	_, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE UNIQUE INDEX t_v ON t (v)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
	const all = "SELECT id, v FROM t ORDER BY id"
	want := dumpRows(t, s, all)
	for _, sql := range []string{
		"UPDATE t SET id = 100 WHERE id < 5",          // moves row 1, then collides
		"UPDATE t SET v = 9 WHERE id < 5",             // the unique index rejects row 2
		"INSERT INTO t VALUES (7, 7), (8, 8), (7, 9)", // duplicate key in the third row
		"INSERT INTO t VALUES (7, 7), (8, 'x')",       // type mismatch in the second row
	} {
		if _, err := s.Query(sql); err == nil {
			t.Fatalf("%s: want an error", sql)
		}
		if got := dumpRows(t, s, all); got != want {
			t.Fatalf("%s: failed statement left %s, want %s", sql, got, want)
		}
		if got := dumpRows(t, s, "SELECT id FROM t WHERE v = 1"); got != "[[1]]" {
			t.Fatalf("%s: index probe after unwind = %s", sql, got)
		}
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET v = 30 WHERE id = 3")
	if _, err := s.Query("UPDATE t SET id = 100 WHERE id < 5"); err == nil {
		t.Fatal("want a unique violation inside the transaction")
	}
	if !s.InTransaction() {
		t.Fatal("a failed statement must leave the transaction open")
	}
	mustExec(t, s, "COMMIT")
	if got, want := dumpRows(t, s, all), "[[1 1] [2 2] [3 30]]"; got != want {
		t.Fatalf("after COMMIT: %s, want %s", got, want)
	}
}

// TestRollbackRestoresRowsInPlace: rolling back a DELETE brings the row back
// at its own RowID, where the older steps of the same rollback find it, so
// the rolled-back table scans in its old order.
func TestRollbackRestoresRowsInPlace(t *testing.T) {
	db, s := newTestDB(t)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 1), (2, 2)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (7, 7)")
	mustExec(t, s, "UPDATE t SET v = 70 WHERE id = 7")
	mustExec(t, s, "DELETE FROM t WHERE id = 7")
	mustExec(t, s, "UPDATE t SET v = 10, id = 10 WHERE id = 1")
	mustExec(t, s, "DELETE FROM t WHERE id = 10")
	mustExec(t, s, "INSERT INTO t VALUES (1, 11)")
	mustExec(t, s, "DELETE FROM t")
	if _, err := s.Query("ROLLBACK"); err != nil {
		t.Fatalf("ROLLBACK: %v", err)
	}
	if got, want := dumpRows(t, s, "SELECT id, v FROM t ORDER BY id"), "[[1 1] [2 2]]"; got != want {
		t.Fatalf("after ROLLBACK: %s, want %s", got, want)
	}
	var ids []tablestore.RowID
	if err := db.Scan("t", func(id tablestore.RowID, _ []sheet.Value) bool { ids = append(ids, id); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []tablestore.RowID{1, 2}) {
		t.Fatalf("rows after ROLLBACK live at RowIDs %v, want [1 2]", ids)
	}
}

// TestExplicitTransactionsRetainNoMemory: a committed transaction leaves
// nothing behind. Transactions of 10 single-row updates each once kept about
// 1 KB apiece in a log nothing read: 4 MB for these 4,000.
func TestExplicitTransactionsRetainNoMemory(t *testing.T) {
	const txns = 4000
	db := NewDatabase(Config{})
	s := db.NewSession(nil)
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i))
	}
	upd, err := db.Prepare("UPDATE t SET v = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	begin, commit := mustPrepare(t, db, "BEGIN"), mustPrepare(t, db, "COMMIT")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	for n := 0; n < txns; n++ {
		if _, err := s.ExecutePreparedContext(t.Context(), begin); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := s.ExecutePreparedContext(t.Context(), upd, sheet.Number(float64(n)), sheet.Number(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.ExecutePreparedContext(t.Context(), commit); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heap()) - int64(base)
	runtime.KeepAlive(s) // the session and its database must still be reachable
	if grown > 2<<20 {
		t.Fatalf("%d committed transactions retained %d bytes of heap, want at most 2 MiB", txns, grown)
	}
}

func mustPrepare(t *testing.T, db *Database, sql string) *Prepared {
	t.Helper()
	p, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
