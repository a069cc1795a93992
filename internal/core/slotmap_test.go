package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// Tests of the checkpoint root's slot map: a reopen rebuilds the heap's free
// list from it instead of reading every slot header, falls back to the
// header scan when it is missing or damaged, and leaves the files untouched
// when it has nothing to persist.

// readCountFS counts the ReadAt calls on one file.
type readCountFS struct {
	vfs.FS
	path  string
	reads atomic.Int64
}

func (fs *readCountFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || path != fs.path {
		return f, err
	}
	return &readCountFile{File: f, fs: fs}, nil
}

type readCountFile struct {
	vfs.File
	fs *readCountFS
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

// slotMapPage returns the slot-map page the committed root of a closed
// workbook names.
func slotMapPage(t *testing.T, path string) pager.PageID {
	t.Helper()
	be, err := pager.OpenFileStoreVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	root, _, fresh := loadRoots(be)
	if fresh || root.mapPage == 0 {
		t.Fatalf("committed root names no slot map (fresh=%v)", fresh)
	}
	return root.mapPage
}

// TestReopenReadsCatalogNotSlots: opening a checkpointed workbook and
// answering a bare COUNT(*) reads the root slots and the blobs the root
// names, not one slot header per slot; with the slot map damaged the open
// falls back to the header scan and recovers the same state.
func TestReopenReadsCatalogNotSlots(t *testing.T) {
	const n = 100_000
	path := buildIndexedWorkbook(t, n)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	slots := info.Size() / pager.PageSize

	// open reopens the workbook through a read-counting filesystem, checks
	// the bare COUNT(*) and a clean recovery, and returns the heap reads of
	// open + COUNT(*) + Close with the full dump.
	open := func(label string) (int64, string) {
		t.Helper()
		fsys := &readCountFS{FS: vfs.OS(), path: path}
		ds, err := OpenFile(path, Options{CheckpointWALBytes: -1, FS: fsys})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if errs := ds.RecoveryErrors(); len(errs) != 0 {
			t.Fatalf("%s: recovery errors: %v", label, errs)
		}
		if got := queryNums(t, ds, "SELECT COUNT(*) FROM ev"); got[0] != n {
			t.Fatalf("%s: COUNT(*) = %d, want %d", label, got[0], n)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		return fsys.reads.Load(), crashDump(t, path)
	}

	reads, want := open("slot map")
	t.Logf("%d rows, %d slots: open + COUNT(*) + Close read the heap %d times", n, slots, reads)
	if reads*50 > slots {
		t.Errorf("open + COUNT(*) issued %d heap reads for a %d-slot file, want at most 2%%", reads, slots)
	}

	// Damage the slot map's payload: its CRC fails and the open scans.
	heap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap[int64(slotMapPage(t, path))*pager.PageSize+40] ^= 0xFF
	if err := os.WriteFile(path, heap, 0o644); err != nil {
		t.Fatal(err)
	}
	reads, got := open("damaged slot map")
	if reads < slots-1 {
		t.Errorf("damaged slot map: %d heap reads for %d slots, want the header scan", reads, slots)
	}
	if got != want {
		t.Errorf("the header-scan fallback recovers a different state\nmap:\n%.2000s\nscan:\n%.2000s", want, got)
	}
}

// TestCleanReopenWritesNothing: OpenFile, a bare COUNT(*) and Close on a
// checkpointed workbook write and sync neither the heap nor the WAL. The
// second checkpoint relocates pages the first one wrote, so its slot map is
// taken while superseded pages are still allocated: they are recorded free,
// the open frees nothing, and neither file has anything to persist at Close.
func TestCleanReopenWritesNothing(t *testing.T) {
	path := buildIndexedWorkbook(t, 2_000)
	ds := openDurable(t, path)
	if _, err := ds.Query("UPDATE ev SET v = v + 1 WHERE id % 3 = 0"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{vfs.OpWrite, vfs.OpSync} {
		for _, file := range []string{path, WALPath(path)} {
			ffs := vfs.NewFaultFS(nil)
			ffs.SetFault(vfs.Fault{Kind: kind, PathSuffix: file, Err: syscall.EIO})
			ds, err := OpenFile(path, Options{CheckpointWALBytes: -1, FS: ffs})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got := queryNums(t, ds, "SELECT COUNT(*) FROM ev"); got[0] != 2_000 {
				t.Fatalf("COUNT(*) = %d, want 2000", got[0])
			}
			cerr := ds.Close()
			if op, p, hit := ffs.Hit(); hit || cerr != nil {
				t.Errorf("open + COUNT(*) + Close issued a %s on %s (close: %v)", op, filepath.Base(p), cerr)
			}
		}
	}
}

// TestSlotMapKeepsFileSize: over repeated update → checkpoint → update →
// close → reopen cycles the heap stops growing — the slots a slot-map attach
// frees, the ones past its high-water mark included, are reused — and every
// reopen recovers the rows.
func TestSlotMapKeepsFileSize(t *testing.T) {
	path := buildIndexedWorkbook(t, 5_000)
	var sizes []int64
	for cycle := 0; cycle < 20; cycle++ {
		ds := openDurable(t, path)
		if errs := ds.RecoveryErrors(); len(errs) != 0 {
			t.Fatalf("cycle %d: recovery errors: %v", cycle, errs)
		}
		update := fmt.Sprintf("UPDATE ev SET v = v + 1 WHERE id %% 7 = %d", cycle%7)
		if _, err := ds.Query(update); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// A tail past the checkpoint: the reopen replays it into slots the
		// map records free or never saw.
		if _, err := ds.Query(update); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	if last, settled := sizes[len(sizes)-1], sizes[4]; last > settled {
		t.Errorf("heap keeps growing across reopen cycles: %v bytes", sizes)
	}
	re := openDurable(t, path)
	defer re.Close()
	if got := queryNums(t, re, "SELECT COUNT(*) FROM ev"); got[0] != 5_000 {
		t.Fatalf("COUNT(*) = %d, want 5000", got[0])
	}
}

// TestPreSlotMapRootOpens: a workbook whose roots predate slot maps (the
// 52-byte root record, no map page) opens through the header scan and
// recovers the same state; its next checkpoint writes a map.
func TestPreSlotMapRootOpens(t *testing.T) {
	path := buildIndexedWorkbook(t, 3_000)
	want := crashDump(t, path)

	be, err := pager.OpenFileStoreVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Attach(nil); err != nil {
		t.Fatal(err)
	}
	root, _, _ := loadRoots(be)
	old := encodeRoot(root)[:rootRecordSizeV1]
	for _, slot := range []pager.PageID{rootSlotA, rootSlotB} {
		if err := be.WritePage(slot, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := &readCountFS{FS: vfs.OS(), path: path}
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if ds.root.mapPage != 0 {
		t.Fatalf("a pre-slot-map root decoded with map page %d", ds.root.mapPage)
	}
	if info, err := os.Stat(path); err != nil || fsys.reads.Load() < info.Size()/pager.PageSize-1 {
		t.Errorf("pre-slot-map open read the heap %d times: want the header scan (%v)", fsys.reads.Load(), err)
	}
	if got := dumpDB(t, ds); got != want {
		t.Errorf("pre-slot-map open recovers a different state")
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if slotMapPage(t, path) == 0 {
		t.Error("checkpoint after a pre-slot-map open wrote no slot map")
	}
	if got := crashDump(t, path); got != want {
		t.Errorf("reopen after the upgrade checkpoint recovers a different state")
	}
}

// TestScanAfterSlotMapOpenKeepsLivePages: a header scan that follows a
// slot-map open keeps every live page. The map open frees the slots of the
// pages written after its checkpoint in memory only, so their heads and
// chain links stay on disk while the next checkpoint reuses the slots; when
// that checkpoint's map is then damaged, the fallback scan reads the stale
// links and must not free the live chains they point into.
func TestScanAfterSlotMapOpenKeepsLivePages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds := openDurable(t, path)
	if _, err := ds.Query("CREATE TABLE w (id INT PRIMARY KEY, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3_000; i++ {
		row := []sheet.Value{sheet.Number(float64(i)), sheet.String_(fmt.Sprintf("%0200d", i*7919))}
		if _, err := ds.DB().Insert("w", row); err != nil {
			t.Fatal(err)
		}
	}
	update := func(ds *DataSpread, k int) {
		t.Helper()
		sql := fmt.Sprintf("UPDATE w SET s = s || '%d' WHERE id %% 3 = %d", k, k%3)
		if _, err := ds.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	closeDS := func(ds *DataSpread) {
		t.Helper()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	update(ds, 0) // pages written after the checkpoint: a WAL tail
	closeDS(ds)

	ds = openDurable(t, path) // through the map: the tail's slots are free
	update(ds, 1)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, ds)
	closeDS(ds)

	heap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap[int64(slotMapPage(t, path))*pager.PageSize+40] ^= 0xFF
	if err := os.WriteFile(path, heap, 0o644); err != nil {
		t.Fatal(err)
	}
	ds = openDurable(t, path) // through the header scan
	if got := dumpDB(t, ds); got != want {
		t.Fatal("the header scan after a slot-map open recovers a different state")
	}
	// Reuse whatever the open freed: a live slot on the free list is
	// overwritten here and shows in the next reopen.
	for k := 2; k < 5; k++ {
		update(ds, k)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = dumpDB(t, ds)
	closeDS(ds)
	if got := crashDump(t, path); got != want {
		t.Fatal("writes after the header-scan open damaged live pages")
	}
}
