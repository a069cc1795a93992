package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/storage/pager"
)

// copyWorkbook snapshots the heap and WAL of a live workbook into dir,
// returning the copied workbook path — the on-disk state a crash at this
// instant would leave behind.
func copyWorkbook(t *testing.T, src, dir string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "book.dsp")
	for _, pair := range [][2]string{{src, dst}, {WALPath(src), WALPath(dst)}} {
		data, err := os.ReadFile(pair[0])
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(pair[1], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// The durability suites fill one table: seq, row i = (i, i%3), with a
// primary key and a secondary index, so every checkpoint they freeze, tear,
// corrupt or fault has leaf pages of both kinds of index in flight.
const seqSchema = `
	CREATE TABLE seq (n INT PRIMARY KEY, g INT);
	CREATE INDEX seq_g ON seq (g);`

func createSeq(t *testing.T, ds *DataSpread) {
	t.Helper()
	if _, err := ds.QueryScript(seqSchema); err != nil {
		t.Fatal(err)
	}
}

func insertSeq(t *testing.T, ds *DataSpread, i int) {
	t.Helper()
	if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", i, i%3)); err != nil {
		t.Fatal(err)
	}
}

// errSeqContent marks a seqRows failure that is wrong data, as opposed to a
// query that failed.
var errSeqContent = errors.New("seq holds wrong rows")

// seqRows returns how many rows seq holds after checking that they are
// exactly 1..k — read by full scan, through the primary-key leaves and
// through the secondary-index leaves, which must all agree (errSeqContent
// otherwise). A query's own error is returned as it is: the corruption fuzz
// accepts a detected failure.
func seqRows(ds *DataSpread) (int, error) {
	scan, err := ds.Query("SELECT n, g FROM seq ORDER BY n")
	if err != nil {
		return 0, err
	}
	k := len(scan.Rows)
	for i, row := range scan.Rows {
		if int(row[0].Num) != i+1 || int(row[1].Num) != (i+1)%3 {
			return 0, fmt.Errorf("%w: row %d = (%v, %v), want (%d, %d): not a committed prefix", errSeqContent, i, row[0], row[1], i+1, (i+1)%3)
		}
	}
	for _, q := range []struct {
		sql  string
		want func(i int) bool
	}{
		{"SELECT n FROM seq WHERE n >= 1", func(int) bool { return true }},
		{"SELECT n FROM seq WHERE g = 1", func(i int) bool { return i%3 == 1 }},
		{"SELECT n FROM seq WHERE g >= 0", func(int) bool { return true }},
	} {
		res, err := ds.Query(q.sql)
		if err != nil {
			return 0, err
		}
		next := 0
		for i := 1; i <= k; i++ {
			if !q.want(i) {
				continue
			}
			if next >= len(res.Rows) || int(res.Rows[next][0].Num) != i {
				return 0, fmt.Errorf("%w: %s: row %d missing or misplaced among %d rows (table holds 1..%d)", errSeqContent, q.sql, i, len(res.Rows), k)
			}
			next++
		}
		if next != len(res.Rows) {
			return 0, fmt.Errorf("%w: %s: %d rows, want %d (table holds 1..%d)", errSeqContent, q.sql, len(res.Rows), next, k)
		}
	}
	return k, nil
}

// expectSeq opens a workbook and asserts table seq holds exactly 1..n.
func expectSeq(t *testing.T, path string, n int, desc string) {
	t.Helper()
	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("%s: open: %v", desc, err)
	}
	defer re.Close()
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("%s: recovery errors: %v", desc, errs)
	}
	if k, err := seqRows(re); err != nil || k != n {
		t.Fatalf("%s: %d rows (%v), want %d", desc, k, err, n)
	}
}

// TestReopenAttachesWithoutReplay is the acceptance test for page-rooted
// recovery: after a checkpoint, reopening a workbook with N committed rows
// attaches to the existing table and index pages without replaying per-row
// DML — the replayed-command count is independent of N.
func TestReopenAttachesWithoutReplay(t *testing.T) {
	const n = 400
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.QueryScript(`
		CREATE TABLE seq (n INT PRIMARY KEY, v NUMERIC);
		CREATE INDEX seq_v ON seq (v);`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", i, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The snapshot holds only sheet-level commands (the Sheet1 creation);
	// tables and indexes attach from pages. Anything growing with N here is
	// a regression to replay-based recovery.
	if got := re.ReplayedCommands(); got > 3 {
		t.Errorf("reopen replayed %d commands, want O(1) (attach, not replay)", got)
	}
	res, err := re.Query("SELECT COUNT(n) FROM seq")
	if err != nil || res.Rows[0][0].Num != n {
		t.Fatalf("attached table: %v %v, want %d rows", res, err, n)
	}
	// The secondary index attached too (not rebuilt): the planner uses it.
	plan, err := re.Query("EXPLAIN SELECT n FROM seq WHERE v = 300")
	if err != nil {
		t.Fatal(err)
	}
	if text := plan.Rows[0][0].String(); !strings.Contains(text, "index seq_v") {
		t.Errorf("EXPLAIN after attach = %q, want the secondary index path", text)
	}

	// Contrast: the same history without a checkpoint replays per-row DML.
	path2 := filepath.Join(t.TempDir(), "book2.dsp")
	ds2, err := OpenFile(path2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds2.Query("CREATE TABLE seq (n INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := ds2.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenFile(path2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.ReplayedCommands(); got < 50 {
		t.Errorf("un-checkpointed reopen replayed %d commands, want >= 50 (sanity)", got)
	}
}

// TestBackgroundCheckpointRacesWrites drives writes through a workbook whose
// WAL threshold is tiny, so background checkpoints run concurrently with the
// write stream and with readers (this test is part of the -race CI run).
// Everything committed must survive the final reopen, and the replayed
// command count must show that checkpoints actually absorbed most history.
func TestBackgroundCheckpointRacesWrites(t *testing.T) {
	const n = 250
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Query("CREATE TABLE seq (n INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // readers race the checkpointer and the writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.Query("SELECT COUNT(n) FROM seq"); err != nil {
				t.Errorf("racing read: %v", err)
				return
			}
		}
	}()
	for i := 1; i <= n; i++ {
		if _, err := ds.Query(fmt.Sprintf("INSERT INTO seq VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := ds.Close(); err != nil {
		t.Fatalf("close (includes background checkpoint errors): %v", err)
	}

	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query("SELECT COUNT(n) FROM seq")
	if err != nil || int(res.Rows[0][0].Num) != n {
		t.Fatalf("after racing checkpoints: %v %v, want %d rows", res, err, n)
	}
	if got := re.ReplayedCommands(); got >= n {
		t.Errorf("replayed %d commands; background checkpoints never absorbed the WAL", got)
	}
}

// TestRootFlipAtomicKillPoints freezes the on-disk state at every stage
// boundary of a checkpoint — and with a torn root page — and proves each
// state recovers exactly the committed history: the flip is atomic, so
// recovery sees either the old root plus the full WAL or the new root.
func TestRootFlipAtomicKillPoints(t *testing.T) {
	const n1, n2 = 8, 5
	base := t.TempDir()
	path := filepath.Join(base, "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1}) // manual stages only
	if err != nil {
		t.Fatal(err)
	}
	createSeq(t, ds)
	for i := 1; i <= n1; i++ {
		insertSeq(t, ds, i)
	}
	if err := ds.Checkpoint(); err != nil { // generation 1, both slots mirrored
		t.Fatal(err)
	}
	for i := n1 + 1; i <= n1+n2; i++ {
		insertSeq(t, ds, i)
	}
	ds.Wait()

	// Run the second checkpoint stage by stage, freezing the files at each
	// kill point.
	st, err := ds.ckptCapture()
	if err != nil {
		t.Fatal(err)
	}
	postCapture := copyWorkbook(t, path, filepath.Join(base, "post-capture"))
	if err := ds.ckptWrite(st); err != nil {
		t.Fatal(err)
	}
	preFlip := copyWorkbook(t, path, filepath.Join(base, "pre-flip"))
	if err := ds.ckptFlip(st); err != nil {
		t.Fatal(err)
	}
	postFlip := copyWorkbook(t, path, filepath.Join(base, "post-flip"))
	if err := ds.ckptAdopt(st); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	final := copyWorkbook(t, path, filepath.Join(base, "final"))

	expectSeq(t, postCapture, n1+n2, "kill post-capture")
	expectSeq(t, preFlip, n1+n2, "kill pre-flip (old root + full WAL)")
	expectSeq(t, postFlip, n1+n2, "kill post-flip (new root, stale WAL skipped)")
	expectSeq(t, final, n1+n2, "clean close")

	// Torn flip: corrupt the slot generation 2 landed in (rootSlotFor(2) =
	// slot B = page 2) on the post-flip image. Recovery must fall back to
	// the generation-1 root and replay the full WAL — same rows, no dupes.
	torn := copyWorkbook(t, postFlip, filepath.Join(base, "torn-root"))
	heap, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		heap[2*4096+20+i] ^= 0xFF // scribble over the root record payload
	}
	if err := os.WriteFile(torn, heap, 0o644); err != nil {
		t.Fatal(err)
	}
	expectSeq(t, torn, n1+n2, "torn root flip (fallback to mirrored sibling)")

	// Both root slots corrupted: the open must refuse with a clear error,
	// never serve a guess.
	dead := copyWorkbook(t, postFlip, filepath.Join(base, "dead-roots"))
	heap, err = os.ReadFile(dead)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{1, 2} {
		for i := 0; i < 8; i++ {
			heap[slot*4096+20+i] ^= 0xFF
		}
	}
	if err := os.WriteFile(dead, heap, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := OpenFile(dead, Options{}); err == nil {
		re.Close()
		t.Fatal("open with both roots corrupt should fail")
	}
}

// TestCheckpointWALTailRoundTrip: a workbook whose state is split between a
// checkpoint and a WAL tail above it reopens with both halves.
func TestCheckpointWALTailRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	createSeq(t, ds)
	for i := 1; i <= 3; i++ {
		insertSeq(t, ds, i)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 13; i++ {
		insertSeq(t, ds, i)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	expectSeq(t, path, 13, "reopen of checkpoint + WAL tail")
}

// TestFirstOpenCrashWindowReinitializes: a kill between the root-slot
// reservation and the gen-0 root sync leaves a heap whose only pages are
// empty (or torn) root slots. Reopening must re-initialise it — the file
// provably holds no committed data — instead of refusing it forever.
func TestFirstOpenCrashWindowReinitializes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "book.dsp")
	// Simulate the kill: a heap with slot 1 allocated but never written.
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if id := fs.Allocate(); id != 1 {
		t.Fatalf("allocated %d, want 1", id)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("open after first-open crash window: %v", err)
	}
	if _, err := ds.Query("CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// A heap whose page 1 holds foreign (non-root) bytes must be refused,
	// not silently re-initialised.
	path2 := filepath.Join(dir, "legacy.dsp")
	fs2, err := pager.OpenFileStore(path2)
	if err != nil {
		t.Fatal(err)
	}
	if id := fs2.Allocate(); id != 1 {
		t.Fatalf("allocated %d, want 1", id)
	}
	if err := fs2.WritePage(1, []byte("legacy snapshot blob")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	if re, err := OpenFile(path2, Options{}); err == nil {
		re.Close()
		t.Fatal("open silently re-initialised a page with foreign data")
	}
}
