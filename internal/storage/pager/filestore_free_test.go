package pager

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// TestFileStoreFreeDefersSlotWrites pins the free-batching contract: Free is
// a pure in-memory operation (no file I/O), the flagFree headers land in one
// batch at the next Sync, and a slot freed and reallocated between barriers
// never has a free flag written at all.
func TestFileStoreFreeDefersSlotWrites(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStoreVFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		id := fs.Allocate()
		if id == InvalidPage {
			t.Fatal("Allocate failed")
		}
		if err := fs.WritePage(id, bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	before := ffs.Ops()
	fs.Free(ids[0])
	fs.Free(ids[1])
	if got := ffs.Ops(); got != before {
		t.Fatalf("Free performed %d mutating file operations, want 0", got-before)
	}
	// Until the flush the on-disk headers still read as live.
	for _, id := range ids[:2] {
		if _, _, flags, err := fs.readSlotHeader(id); err != nil || flags == flagFree {
			t.Fatalf("slot %d flags=%d err=%v before flush, want live header", id, flags, err)
		}
	}

	// Free-then-reallocate before the barrier drops the pending flag: the
	// recycled slot must come back from the in-memory free list (LIFO) and
	// must not be flagged free by the flush below.
	re := fs.Allocate()
	if re != ids[1] {
		t.Fatalf("Allocate after Free = %d, want recycled slot %d", re, ids[1])
	}

	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, flags, err := fs.readSlotHeader(ids[0]); err != nil || flags != flagFree {
		t.Fatalf("slot %d flags=%d err=%v after Sync, want flagFree", ids[0], flags, err)
	}
	if _, _, flags, err := fs.readSlotHeader(re); err != nil || flags == flagFree {
		t.Fatalf("recycled slot %d flags=%d err=%v after Sync, want live header", re, flags, err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the flushed flags rebuild the free list, so allocation recycles
	// the freed slot instead of growing the file.
	reopened, err := OpenFileStoreVFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Attach(nil); err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Allocate(); got != ids[0] {
		t.Fatalf("Allocate after reopen = %d, want recycled slot %d", got, ids[0])
	}
}

// TestFileStoreCloseFlushesFrees covers the Close barrier: frees deferred
// past the last Sync still reach disk before the file is closed.
func TestFileStoreCloseFlushesFrees(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fs.Allocate(), fs.Allocate()
	if err := fs.WritePage(a, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(b, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	fs.Free(a)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Attach(nil); err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Exists(a) {
		t.Fatalf("slot %d still live after Free + Close", a)
	}
	if got := reopened.Allocate(); got != a {
		t.Fatalf("Allocate after reopen = %d, want recycled slot %d", got, a)
	}
	if data, err := reopened.ReadPage(b); err != nil || !bytes.Equal(data, []byte("bb")) {
		t.Fatalf("surviving page = %q, %v", data, err)
	}
}
