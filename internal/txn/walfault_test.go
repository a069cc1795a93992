package txn

import (
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// A failed WAL flush/fsync must disable the log: the commit that hit it
// fails with a classified error, and later commits report the latched
// failure instead of retrying the fsync (fsync-gate).
func TestWALDisabledAfterSyncFailure(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "book.wal")
	mgr := NewManager()
	if _, err := mgr.RecoverFileVFS(ffs, path); err != nil {
		t.Fatalf("recover: %v", err)
	}
	commit := func() error {
		return mgr.Append(Op{Kind: OpSQL, Detail: "INSERT", Args: []string{"INSERT"}})
	}
	if err := commit(); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	ffs.SetFault(vfs.Fault{Kind: vfs.OpSync, Err: syscall.EIO})
	err := commit()
	if err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("faulted commit = %v, want ErrIO", err)
	}
	// The fault was single-shot; a retried commit could flush successfully,
	// but the latch must refuse it.
	err = commit()
	if err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("post-fault commit = %v, want latched ErrIO", err)
	}
	if !strings.Contains(err.Error(), "fsync-gate") {
		t.Fatalf("post-fault commit = %q, want fsync-gate mention", err)
	}
	if err := mgr.TruncateThrough(99); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("TruncateThrough on disabled WAL = %v, want latched ErrIO", err)
	}
	// Close still closes the file and reports the latched failure once.
	if err := mgr.Close(); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("Close = %v, want latched ErrIO", err)
	}

	// Reopen with a clean filesystem. The acknowledged first commit must be
	// recovered; the faulted one was flushed but never fsynced, so it may
	// or may not survive — both are legal outcomes for an unacknowledged
	// commit. Never more than those two.
	re := NewManager()
	recs, err := re.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) < 1 || len(recs) > 2 {
		t.Fatalf("recovered %d records, want 1 or 2", len(recs))
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

// A failed compaction before the rename leaves the old log fully intact and
// usable.
func TestWALCompactionFailureKeepsOldLog(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "book.wal")
	mgr := NewManager()
	if _, err := mgr.RecoverFileVFS(ffs, path); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := mgr.Append(Op{Kind: OpSQL, Detail: "INSERT", Args: []string{"INSERT"}}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// Fail the compaction target's sync; records 2..3 survive above the
	// watermark, so the tmp-file path runs.
	ffs.SetFault(vfs.Fault{Kind: vfs.OpSync, PathSuffix: ".compact", Err: syscall.EIO})
	if err := mgr.TruncateThrough(1); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("compaction = %v, want ErrIO", err)
	}
	// Nothing durable was touched: the next commit still works.
	if err := mgr.Append(Op{Kind: OpSQL, Detail: "INSERT", Args: []string{"INSERT"}}); err != nil {
		t.Fatalf("commit after failed compaction: %v", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := NewManager()
	recs, err := re.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}
