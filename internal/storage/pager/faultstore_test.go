package pager

import (
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// A failed heap fsync must latch: later Syncs report the first failure
// instead of retrying (fsync-gate), and Close surfaces it once more.
func TestFileStoreFsyncGate(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	fs, err := OpenFileStoreVFS(ffs, filepath.Join(t.TempDir(), "heap.dsp"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	id := fs.Allocate()
	if id == InvalidPage {
		t.Fatalf("allocate failed")
	}
	if err := fs.WritePage(id, []byte("payload")); err != nil {
		t.Fatalf("write page: %v", err)
	}
	ffs.SetFault(vfs.Fault{Kind: vfs.OpSync, Err: syscall.EIO})
	first := fs.Sync()
	if first == nil || !errors.Is(first, dberr.ErrIO) {
		t.Fatalf("faulted Sync = %v, want ErrIO", first)
	}
	// The fault is single-shot, so a retried fsync would succeed at the
	// filesystem level — the latch must fail it anyway.
	second := fs.Sync()
	if second == nil || !errors.Is(second, dberr.ErrIO) {
		t.Fatalf("retried Sync = %v, want latched ErrIO", second)
	}
	if !strings.Contains(second.Error(), "fsync-gate") {
		t.Fatalf("retried Sync = %q, want fsync-gate mention", second)
	}
	if err := fs.Err(); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("Err() = %v, want latched ErrIO", err)
	}
	cerr := fs.Close()
	if cerr == nil || !errors.Is(cerr, dberr.ErrIO) {
		t.Fatalf("Close = %v, want latched ErrIO", cerr)
	}
	// Reads of committed pages must keep working... but the store is
	// closed now; what matters is the error never silently vanished.
}

// An allocation whose slot write fails must surface through Err and
// AllocatePage as a classified I/O failure.
func TestAllocatePageClassifiesBackendFailure(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	fs, err := OpenFileStoreVFS(ffs, filepath.Join(t.TempDir(), "heap.dsp"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fs.Close()
	pool := NewBufferPool(fs, 0)
	ffs.SetFault(vfs.Fault{Kind: vfs.OpWrite, Err: syscall.ENOSPC})
	id, aerr := pool.AllocatePage()
	if id != InvalidPage || aerr == nil {
		t.Fatalf("AllocatePage = %d, %v; want InvalidPage and error", id, aerr)
	}
	if !errors.Is(aerr, dberr.ErrIO) || !errors.Is(aerr, dberr.ErrDiskFull) {
		t.Fatalf("AllocatePage error = %v, want ErrIO and ErrDiskFull", aerr)
	}
}

// Reclaim re-registers a reserved slot whose header was destroyed, without
// disturbing live or free slots.
func TestFileStoreReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	a, b := fs.Allocate(), fs.Allocate()
	if a == InvalidPage || b == InvalidPage {
		t.Fatalf("allocate failed")
	}
	// Reclaiming an allocated page is a no-op.
	if err := fs.Reclaim(a); err != nil {
		t.Fatalf("reclaim live: %v", err)
	}
	// Reclaiming a freed page pulls it back out of the free list.
	fs.Free(b)
	if err := fs.Reclaim(b); err != nil {
		t.Fatalf("reclaim freed: %v", err)
	}
	if !fs.Exists(b) {
		t.Fatalf("reclaimed page %d should exist", b)
	}
	// The freed slot must not be handed out again.
	c := fs.Allocate()
	if c == b {
		t.Fatalf("allocate handed out reclaimed page %d", b)
	}
	// Reclaiming past the tail extends the file.
	far := fs.next + 3
	if err := fs.Reclaim(far); err != nil {
		t.Fatalf("reclaim past tail: %v", err)
	}
	if !fs.Exists(far) {
		t.Fatalf("reclaimed tail page %d should exist", far)
	}
	if err := fs.WritePage(far, []byte("x")); err != nil {
		t.Fatalf("write reclaimed page: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Reopen: the reclaimed pages persist as allocated heads.
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := re.Attach(nil); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, id := range []PageID{a, b, c, far} {
		if !re.Exists(id) {
			t.Fatalf("page %d lost across reopen", id)
		}
	}
}
