package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// Tests of the page-resident index leaves as a durable workbook sees them:
// what an open reads, what a checkpoint frees, and what a damaged leaf does.

// tapFS passes every page read of the workbook heap — a ReadAt of a whole
// slot — to onRead with the slot number, which may fail it. Slot-header
// reads (the header-scan fallback) are not page reads.
type tapFS struct {
	vfs.FS
	heap   string
	onRead func(slot int64) error
}

func (fs *tapFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || path != fs.heap {
		return f, err
	}
	return &tapFile{File: f, fs: fs}, nil
}

type tapFile struct {
	vfs.File
	fs *tapFS
}

func (f *tapFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == pager.PageSize {
		if err := f.fs.onRead(off / pager.PageSize); err != nil {
			return 0, &vfs.OpError{Op: vfs.OpRead, Path: f.fs.heap, Err: err}
		}
	}
	return f.File.ReadAt(p, off)
}

// leafSlots returns the heap slots of a closed workbook that hold index leaf
// pages: the live pages, as a reopen attaches them from the root's slot map,
// whose payload carries the leaf magic.
func leafSlots(t *testing.T, path string) map[int64]bool {
	t.Helper()
	be, err := pager.OpenFileStoreVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	root, _, _ := loadRoots(be)
	slotMap, _ := be.ReadPage(root.mapPage)
	if _, err := be.Attach(slotMap); err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]bool)
	for _, id := range be.PageIDs() {
		if buf, err := be.ReadPage(id); err == nil && bytes.HasPrefix(buf, []byte("DSBL")) {
			out[int64(id)] = true
		}
	}
	return out
}

// buildIndexedWorkbook creates, checkpoints and closes a workbook holding
// table ev (id INT PRIMARY KEY, g INT, v INT) with a secondary index on g
// and rows 1..n, plus table plain — no key, no index, so every leaf page in
// the file belongs to ev.
func buildIndexedWorkbook(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.QueryScript(`
		CREATE TABLE ev (id INT PRIMARY KEY, g INT, v INT);
		CREATE INDEX ev_g ON ev (g);
		CREATE TABLE plain (x INT);
		INSERT INTO plain VALUES (1), (2), (3);`); err != nil {
		t.Fatal(err)
	}
	// Rows go in below the command log: the checkpoint persists them
	// through the pages either way, and the test is not about the WAL.
	for i := 1; i <= n; i++ {
		row := []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i % 97)), sheet.Number(float64(i))}
		if _, err := ds.DB().Insert("ev", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func queryNums(t *testing.T, ds *DataSpread, sql string) []int {
	t.Helper()
	res, err := ds.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]int, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = int(row[0].Num)
	}
	return out
}

// indexMatchesScan runs each query through the planner's index path and as
// a forced full scan and demands identical rows.
func indexMatchesScan(t *testing.T, ds *DataSpread, desc string, queries ...string) {
	t.Helper()
	for _, q := range queries {
		ds.DB().SetPlanHint(sqlexec.PlanHint{FullScan: true})
		want := queryNums(t, ds, q)
		ds.DB().SetPlanHint(sqlexec.PlanHint{})
		if got := queryNums(t, ds, q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: %s: index path returns %d rows %v, full scan %d rows %v", desc, q, len(got), head(got), len(want), head(want))
		}
	}
}

func head(v []int) []int { return v[:min(len(v), 8)] }

// TestOpenDoesNotReadIndexLeaves: opening a workbook costs no index page
// read however large its indexes are, and a primary-key point lookup then
// reads exactly the one leaf the key lives in.
func TestOpenDoesNotReadIndexLeaves(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	path := buildIndexedWorkbook(t, n)
	leaves := leafSlots(t, path)
	if len(leaves) < n/400 {
		t.Fatalf("found %d leaf pages in a two-index table of %d rows", len(leaves), n)
	}
	var leafReads atomic.Int64
	fsys := &tapFS{FS: vfs.OS(), heap: path, onRead: func(slot int64) error {
		if leaves[slot] {
			leafReads.Add(1)
		}
		return nil
	}}
	ds, err := OpenFile(path, Options{FS: fsys, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := leafReads.Load(); got != 0 {
		t.Fatalf("OpenFile read %d of %d index leaf pages, want 0", got, len(leaves))
	}
	if got := queryNums(t, ds, fmt.Sprintf("SELECT v FROM ev WHERE id = %d", n/2)); len(got) != 1 || got[0] != n/2 {
		t.Fatalf("pk lookup = %v", got)
	}
	if got := leafReads.Load(); got != 1 {
		t.Fatalf("a pk point lookup read %d index leaf pages, want 1", got)
	}
	if got := queryNums(t, ds, "SELECT COUNT(*) FROM ev"); got[0] != n {
		t.Fatalf("COUNT(*) = %v, want %d", got, n)
	}
	if got := leafReads.Load(); got != 1 {
		t.Fatalf("a full scan brought leaf reads to %d", got)
	}
	if ds.ReplayedCommands() > 3 {
		t.Errorf("reopen replayed %d commands", ds.ReplayedCommands())
	}
}

// TestEmptiedLeavesReleasePages: a bulk delete empties most leaves of the
// primary key and many of the secondary index; the next checkpoint must drop
// them from the catalog and free their pages once it has committed, and
// queries must not notice.
func TestEmptiedLeavesReleasePages(t *testing.T) {
	const n, lo, hi = 50_000, 5_000, 45_000
	path := buildIndexedWorkbook(t, n)
	before := len(leafSlots(t, path))

	ds := openDurable(t, path)
	for i := lo; i < hi; i++ {
		// RowIDs follow insertion order: row i is RowID i.
		if err := ds.DB().Delete("ev", tablestore.RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Freed by the checkpoint itself, not by the next open's sweep of
	// unreachable pages: the file already holds fewer live leaf pages, even
	// counting the superseded copies of rewritten leaves that the pool
	// parks until then.
	if after := len(leafSlots(t, path)); after >= before {
		t.Errorf("%d leaf pages before deleting 80%% of the rows, %d after the checkpoint: emptied leaves keep their pages", before, after)
	}

	re := openDurable(t, path)
	if got := queryNums(t, re, "SELECT COUNT(*) FROM ev"); got[0] != n-(hi-lo) {
		t.Fatalf("COUNT(*) = %v, want %d", got, n-(hi-lo))
	}
	indexMatchesScan(t, re, "after bulk delete",
		"SELECT id FROM ev WHERE id BETWEEN 4990 AND 45010",
		"SELECT id FROM ev WHERE id = 20000",
		"SELECT id FROM ev WHERE id = 45000",
		"SELECT id FROM ev WHERE g = 5",
		"SELECT id FROM ev ORDER BY id DESC LIMIT 5",
		"SELECT id FROM ev WHERE id > 4000 ORDER BY id LIMIT 2000",
	)
	// The emptied key range takes inserts again.
	if _, err := re.Query("INSERT INTO ev VALUES (20000, 1, 1)"); err != nil {
		t.Fatal(err)
	}
	indexMatchesScan(t, re, "after re-insert", "SELECT id FROM ev WHERE id BETWEEN 19000 AND 21000")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// After the reopen's sweep what is left is what the catalog holds: a
	// fifth of the keys, in leaves no fuller than before.
	if after := len(leafSlots(t, path)); after > before/2 {
		t.Errorf("%d leaf pages before deleting 80%% of the rows, %d after a reopen", before, after)
	}
}

// TestWALTailReplaysOntoAttachedIndexes: recovery replays the WAL tail —
// inserts, key-moving updates, deletes — onto indexes attached from the
// checkpoint with no leaf loaded, and the result answers index queries
// exactly like full scans, in every group shape.
func TestWALTailReplaysOntoAttachedIndexes(t *testing.T) {
	for _, shape := range tablestore.Shapes {
		t.Run(shape.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "book.dsp")
			opts := Options{GroupSize: shape.GroupSize, CheckpointWALBytes: -1}
			ds, err := OpenFile(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.QueryScript(`
				CREATE TABLE ev (id INT PRIMARY KEY, g INT, v INT);
				CREATE INDEX ev_g ON ev (g);`); err != nil {
				t.Fatal(err)
			}
			insert := func(from, to int) {
				var sb bytes.Buffer
				sb.WriteString("INSERT INTO ev VALUES ")
				for i := from; i < to; i++ {
					if i > from {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%13, i)
				}
				if _, err := ds.Query(sb.String()); err != nil {
					t.Fatal(err)
				}
			}
			insert(0, 3000)
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The tail: only in the WAL when the process dies.
			insert(3000, 3400)
			for _, sql := range []string{
				"DELETE FROM ev WHERE id BETWEEN 1000 AND 1400",
				"UPDATE ev SET g = 99 WHERE id >= 2000 AND id < 2100",
				"UPDATE ev SET id = 9000 WHERE id = 7",
				"DELETE FROM ev WHERE g = 3 AND id < 500",
			} {
				if _, err := ds.Query(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			ds.Wait()
			simulateCrash(t, ds)

			re, err := OpenFile(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if errs := re.RecoveryErrors(); len(errs) != 0 {
				t.Fatalf("recovery errors: %v", errs)
			}
			if got := re.ReplayedCommands(); got < 5 || got > 10 {
				t.Errorf("replayed %d commands, want the handful in the WAL tail", got)
			}
			indexMatchesScan(t, re, "after WAL-tail replay",
				"SELECT id FROM ev WHERE id = 7",
				"SELECT id FROM ev WHERE id = 9000",
				"SELECT id FROM ev WHERE id = 3399",
				"SELECT id FROM ev WHERE id BETWEEN 900 AND 1500",
				"SELECT id FROM ev WHERE id >= 2990",
				"SELECT id FROM ev WHERE g = 99 ORDER BY id",
				"SELECT id FROM ev WHERE g = 3",
				"SELECT id FROM ev WHERE g IN (1, 12)",
				"SELECT id FROM ev WHERE id IN (5, 1200, 3300, 9000)",
				"SELECT id FROM ev ORDER BY id LIMIT 9",
				"SELECT id FROM ev ORDER BY id DESC LIMIT 9",
				"SELECT COUNT(*) FROM ev WHERE id BETWEEN 0 AND 10000",
			)
		})
	}
}

// TestDamagedIndexLeaf: a leaf page that fails its checksum, was torn, or
// cannot be read fails exactly the statements that need it, with a
// classified error. The workbook still opens, other tables and full scans
// of the same table still answer, and nothing reads as "no such row".
func TestDamagedIndexLeaf(t *testing.T) {
	const n = 5000
	src := buildIndexedWorkbook(t, n)
	leaves := leafSlots(t, src)
	if len(leaves) < 4 {
		t.Fatalf("only %d leaf pages", len(leaves))
	}
	eio := func(slot int64) error {
		if leaves[slot] {
			return syscall.EIO
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		damage func(page []byte) // applied to every leaf slot of the copy
		onRead func(slot int64) error
		class  error
	}{
		{"bit flip", func(page []byte) { page[16+40] ^= 0x04 }, nil, dberr.ErrCorrupt},
		{"torn", func(page []byte) { clear(page[512:]) }, nil, dberr.ErrCorrupt},
		{"read error", nil, eio, dberr.ErrIO},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := copyWorkbook(t, src, t.TempDir())
			if c.damage != nil {
				heap, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for slot := range leaves {
					c.damage(heap[slot*pager.PageSize : (slot+1)*pager.PageSize])
				}
				if err := os.WriteFile(path, heap, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{CheckpointWALBytes: -1}
			if c.onRead != nil {
				opts.FS = &tapFS{FS: vfs.OS(), heap: path, onRead: c.onRead}
			}
			ds, err := OpenFile(path, opts)
			if err != nil {
				t.Fatalf("open with damaged index leaves: %v", err)
			}
			defer ds.Close()
			if errs := ds.RecoveryErrors(); len(errs) != 0 {
				t.Fatalf("recovery errors: %v", errs)
			}
			if got := queryNums(t, ds, "SELECT COUNT(*) FROM plain"); got[0] != 3 {
				t.Errorf("unrelated table: %v", got)
			}
			if got := queryNums(t, ds, "SELECT COUNT(*) FROM ev"); got[0] != n {
				t.Errorf("full scan of the indexed table: %v", got)
			}
			for _, sql := range []string{
				"SELECT v FROM ev WHERE id = 77",
				"SELECT id FROM ev WHERE id BETWEEN 10 AND 20",
				"SELECT id FROM ev WHERE g = 5",
				"SELECT id FROM ev ORDER BY id DESC LIMIT 3",
				"UPDATE ev SET v = 0 WHERE id = 77",
				"DELETE FROM ev WHERE g = 5",
				"INSERT INTO ev VALUES (999999, 1, 1)",
			} {
				if res, err := ds.Query(sql); !errors.Is(err, c.class) {
					t.Errorf("%s: result %v, error %v; want an error of class %v", sql, res, err, c.class)
				}
			}
			// The failed statements changed nothing.
			if got := queryNums(t, ds, "SELECT COUNT(*) FROM ev"); got[0] != n {
				t.Errorf("after failed writes the table holds %v rows, want %d", got, n)
			}
		})
	}
}
