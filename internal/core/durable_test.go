package core

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

// simulateCrash abandons the instance the way a killed process would: the
// single-writer lock is released (the OS drops flocks when a process dies)
// but nothing is flushed or closed cleanly.
func simulateCrash(t *testing.T, ds *DataSpread) {
	t.Helper()
	if ds.unlock != nil {
		if err := ds.unlock(); err != nil {
			t.Fatal(err)
		}
		ds.unlock = nil
	}
}

func mustAddr(t *testing.T, s string) sheet.Address {
	t.Helper()
	a, err := sheet.ParseAddress(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func openDurable(t *testing.T, path string) *DataSpread {
	t.Helper()
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rerr := range ds.RecoveryErrors() {
		t.Errorf("recovery error: %v", rerr)
	}
	return ds
}

func mustSet(t *testing.T, ds *DataSpread, sheetName, addr, input string) {
	t.Helper()
	wait, err := ds.SetCell(sheetName, addr, input)
	if err != nil {
		t.Fatalf("SetCell(%s,%s,%q): %v", sheetName, addr, input, err)
	}
	wait()
}

func cellString(t *testing.T, ds *DataSpread, sheetName, addr string) string {
	t.Helper()
	v, err := ds.Get(sheetName, addr)
	if err != nil {
		t.Fatal(err)
	}
	return v.String()
}

// TestKillAndReopenRecoversCommittedWrites is the headline crash test: cell
// edits and SQL are committed to the WAL, the process "dies" without a
// checkpoint or clean close, and reopening the file replays everything back.
func TestKillAndReopenRecoversCommittedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	mustSet(t, ds, "Sheet1", "A1", "10")
	mustSet(t, ds, "Sheet1", "A2", "32")
	mustSet(t, ds, "Sheet1", "A3", "=A1+A2")
	mustSet(t, ds, "Sheet1", "B1", "hello")
	if _, err := ds.QueryScript(`
		CREATE TABLE inv (sku INT PRIMARY KEY, qty NUMERIC);
		INSERT INTO inv VALUES (1, 100);
		INSERT INTO inv VALUES (2, 250);
	`); err != nil {
		t.Fatal(err)
	}
	ds.AddSheet("Extra")
	mustSet(t, ds, "Extra", "C3", "on another sheet")
	ds.Wait()
	// Simulated kill: no Checkpoint, no Close. Commits were synced one by
	// one, so everything must already be on disk.
	simulateCrash(t, ds)

	re := openDurable(t, path)
	defer re.Close()
	if got := cellString(t, re, "Sheet1", "A3"); got != "42" {
		t.Errorf("recovered formula A3 = %q, want 42", got)
	}
	if got := cellString(t, re, "Sheet1", "B1"); got != "hello" {
		t.Errorf("recovered B1 = %q", got)
	}
	if got := cellString(t, re, "Extra", "C3"); got != "on another sheet" {
		t.Errorf("recovered Extra!C3 = %q", got)
	}
	res, err := re.Query("SELECT SUM(qty) FROM inv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "350" {
		t.Errorf("recovered SUM(qty) = %q, want 350", got)
	}
	// The recovered formula still recomputes.
	mustSet(t, re, "Sheet1", "A1", "100")
	if got := cellString(t, re, "Sheet1", "A3"); got != "132" {
		t.Errorf("A3 after post-recovery edit = %q, want 132", got)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	mustSet(t, ds, "Sheet1", "A1", "3.5")
	// A string value that looks numeric: only the typed snapshot codec can
	// preserve its kind (replaying it as raw input would re-type it).
	ds.Engine().SetValue("Sheet1", mustAddr(t, "A2"), sheet.String_("007"))()
	mustSet(t, ds, "Sheet1", "A3", "=A1*2")
	if _, err := ds.QueryScript(`
		CREATE TABLE pets (id INT PRIMARY KEY, name TEXT);
		INSERT INTO pets VALUES (1, 'rex');
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ImportTable("Sheet1", "E1", "pets"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(WALPath(path)); err != nil || info.Size() != 0 {
		t.Fatalf("WAL after checkpoint: %v, size %d", err, info.Size())
	}
	// Post-checkpoint work lands in the WAL tail.
	mustSet(t, ds, "Sheet1", "A4", "after")
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re := openDurable(t, path)
	defer re.Close()
	if got := cellString(t, re, "Sheet1", "A3"); got != "7" {
		t.Errorf("A3 = %q, want 7", got)
	}
	if v, _ := re.Get("Sheet1", "A2"); v.Kind != sheet.KindString || v.Str != "007" {
		t.Errorf("A2 = %v %q, want the string 007 preserved", v.Kind, v.String())
	}
	if got := cellString(t, re, "Sheet1", "A4"); got != "after" {
		t.Errorf("A4 = %q, want post-checkpoint edit recovered", got)
	}
	// The DBTABLE binding re-materialises from the recovered table.
	if got := cellString(t, re, "Sheet1", "F2"); got != "rex" {
		t.Errorf("bound cell F2 = %q, want rex", got)
	}
	if n := len(re.Interface().Bindings()); n != 1 {
		t.Errorf("recovered %d bindings, want 1", n)
	}
}

func TestReopenTolleratesTornWALTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	mustSet(t, ds, "Sheet1", "A1", "safe")
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a torn frame at the tail.
	f, err := os.OpenFile(WALPath(path), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openDurable(t, path)
	defer re.Close()
	if got := cellString(t, re, "Sheet1", "A1"); got != "safe" {
		t.Errorf("A1 = %q after torn-tail recovery", got)
	}
	// And the torn bytes were truncated: a fresh reopen sees a clean log.
	mustSet(t, re, "Sheet1", "A2", "more")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openDurable(t, path)
	defer re2.Close()
	if got := cellString(t, re2, "Sheet1", "A2"); got != "more" {
		t.Errorf("A2 = %q after second recovery", got)
	}
}

func TestDurableExportImportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	mustSet(t, ds, "Sheet1", "A1", "name")
	mustSet(t, ds, "Sheet1", "B1", "score")
	mustSet(t, ds, "Sheet1", "A2", "ada")
	mustSet(t, ds, "Sheet1", "B2", "99")
	if _, err := ds.CreateTableFromRange("Sheet1", "A1:B2", "scores", ExportOptions{PrimaryKey: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	ds.Wait()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, path)
	defer re.Close()
	res, err := re.Query("SELECT score FROM scores WHERE name = 'ada'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "99" {
		t.Fatalf("recovered scores table rows = %v", res.Rows)
	}
	if n := len(re.Interface().Bindings()); n != 1 {
		t.Errorf("recovered %d bindings, want 1", n)
	}
}

func TestCheckpointRequiresDurableInstance(t *testing.T) {
	ds := New(Options{})
	if err := ds.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory instance should fail")
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close on in-memory instance: %v", err)
	}
}

// TestCheckpointCrashBeforeTruncateDoesNotDoubleApply simulates a crash in
// the window between the root flip and the WAL compaction: the WAL still
// holds commands the checkpoint covers, and the LSN watermark must keep
// replay from re-running them (INSERTs are not idempotent).
func TestCheckpointCrashBeforeTruncateDoesNotDoubleApply(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	if _, err := ds.QueryScript(`
		CREATE TABLE t (x INT);
		INSERT INTO t VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	// The checkpoint's capture, write and flip stages — everything up to
	// but excluding the adopt stage that compacts the WAL.
	ds.Wait()
	st, err := ds.ckptCapture()
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.ckptWrite(st); err != nil {
		t.Fatal(err)
	}
	if err := ds.ckptFlip(st); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, path)
	defer re.Close()
	res, err := re.Query("SELECT COUNT(x) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "1" {
		t.Errorf("COUNT(x) after crash-window recovery = %s, want 1 (no double apply)", got)
	}
	// Post-recovery commits get LSNs above the watermark, so a further
	// reopen must not skip them.
	if _, err := re.Query("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openDurable(t, path)
	defer re2.Close()
	res, err = re2.Query("SELECT COUNT(x) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "2" {
		t.Errorf("COUNT(x) after post-watermark commit = %s, want 2", got)
	}
}

// TestPartiallyFailingScriptIsDurable: each script statement is its own
// transaction, so a script that fails midway has still committed its prefix;
// that prefix must survive a reopen, and only it is logged.
func TestPartiallyFailingScriptIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	// The script parses whole, so the failure must be at execution time:
	// the third statement references a missing table after the first two
	// have already committed.
	if _, err := ds.QueryScript(`
		CREATE TABLE t (x INT);
		INSERT INTO t VALUES (7);
		INSERT INTO missing VALUES (1);
	`); err == nil {
		t.Fatal("expected the statement on a missing table to error")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The failed statement never reached the log, so replay meets no error.
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Errorf("recovery errors %v; the log holds only the committed prefix", errs)
	}
	res, err := re.Query("SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "7" {
		t.Errorf("recovered rows = %v, want the committed prefix [7]", res.Rows)
	}
}
