package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// buildMirroredWorkbook creates a workbook whose two root slots both hold the
// same checkpoint root (the adopt stage mirrors), with WAL records above the
// watermark: table seq holds 1..5, rows 4..5 only in the WAL.
func buildMirroredWorkbook(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	createSeq(t, ds)
	for i := 1; i <= 5; i++ {
		if i == 4 {
			if err := ds.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		insertSeq(t, ds, i)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

// corruptSlotSector overwrites the first sector (512 bytes) of a root slot —
// the granularity a torn sector write destroys, taking the 16-byte slot
// header and the root record with it.
func corruptSlotSector(t *testing.T, path string, slot pager.PageID, mutate func(sector []byte)) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("open for surgery: %v", err)
	}
	defer f.Close()
	off := int64(slot) * pager.PageSize
	sector := make([]byte, 512)
	if _, err := f.ReadAt(sector, off); err != nil {
		t.Fatalf("read sector: %v", err)
	}
	mutate(sector)
	if _, err := f.WriteAt(sector, off); err != nil {
		t.Fatalf("write sector: %v", err)
	}
}

// TestTornRootSlotRecovery proves a torn sector-granularity write into either
// root slot never costs data: recovery proceeds from the surviving mirrored
// root (plus the WAL tail), and the open re-registers and re-mirrors the
// destroyed slot so a second, later corruption of the other slot is survivable
// too.
func TestTornRootSlotRecovery(t *testing.T) {
	src := buildMirroredWorkbook(t)
	variants := []struct {
		name   string
		mutate func([]byte)
	}{
		// Garbage over header and record: the slot no longer parses as
		// allocated at all (the Reclaim path).
		{"garbage", func(s []byte) {
			for i := range s {
				s[i] = 0xFF
			}
		}},
		// Zeroed sector: the slot header reads as an empty head page, the
		// root record is gone.
		{"zeros", func(s []byte) {
			for i := range s {
				s[i] = 0
			}
		}},
		// Partial record: slot header intact, one byte of the root record
		// flipped so its CRC fails.
		{"crc", func(s []byte) { s[16+8] ^= 0xA5 }},
	}
	for _, slot := range []pager.PageID{1, 2} {
		for _, v := range variants {
			v := v
			slot := slot
			t.Run(fmt.Sprintf("slot%d_%s", slot, v.name), func(t *testing.T) {
				path := copyWorkbook(t, src, filepath.Join(t.TempDir(), "w"))
				corruptSlotSector(t, path, slot, v.mutate)
				expectSeq(t, path, 5, "after torn slot")
				// The open above must have re-mirrored the current root into
				// the destroyed slot: tearing the OTHER slot now still leaves
				// a valid root.
				other := pager.PageID(3) - slot
				corruptSlotSector(t, path, other, v.mutate)
				expectSeq(t, path, 5, "after tearing the re-mirrored sibling")
			})
		}
	}
}

// TestBothRootSlotsTornRefused: with both roots destroyed but data pages
// present, the file is genuinely corrupt — re-initialising it would silently
// discard data, so the open must refuse with ErrCorrupt.
func TestBothRootSlotsTornRefused(t *testing.T) {
	src := buildMirroredWorkbook(t)
	path := copyWorkbook(t, src, filepath.Join(t.TempDir(), "w"))
	for _, slot := range []pager.PageID{1, 2} {
		corruptSlotSector(t, path, slot, func(s []byte) {
			for i := range s {
				s[i] = 0xFF
			}
		})
	}
	ds, err := OpenFile(path, Options{})
	if err == nil {
		ds.Close()
		t.Fatalf("open succeeded with both root slots torn and data pages present")
	}
	if !errors.Is(err, dberr.ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

// TestBackgroundCheckpointSyncFailureSurfaces: a durability-class failure (a
// failed fsync) inside a background checkpoint must not vanish in the
// goroutine — Health reports it, the next explicit Checkpoint and the final
// Close surface it, it is never retried behind the caller's back, and the
// WAL keeps every commit safe for the reopen.
func TestBackgroundCheckpointSyncFailureSurfaces(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{FS: ffs, CheckpointWALBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ds.ckptRetryBase = time.Millisecond
	// Fail the next heap fsync: the CREATE below triggers a background
	// checkpoint whose blob sync hits it. The WAL (different suffix) stays
	// healthy.
	ffs.SetFault(vfs.Fault{Kind: vfs.OpSync, PathSuffix: ".dsp", Err: syscall.EIO})
	createSeq(t, ds)
	deadline := time.Now().Add(5 * time.Second)
	var health error
	for {
		if health = ds.Health(); health != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint failure never surfaced through Health")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(health, dberr.ErrIO) || !strings.Contains(health.Error(), "checkpoint") {
		t.Fatalf("Health = %v, want an ErrIO-classified checkpoint failure", health)
	}
	// A failed checkpoint is not a failed commit: the workbook is not
	// poisoned and the WAL still accepts and protects writes.
	insertSeq(t, ds, 1)
	// The explicit Checkpoint consumes the recorded failure and fails itself
	// on the latched heap fsync (fsync-gate) — never a silent success.
	if err := ds.Checkpoint(); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("explicit Checkpoint = %v, want ErrIO", err)
	}
	// Close reports the latched heap state instead of pretending the final
	// flush worked.
	if err := ds.Close(); err == nil || !errors.Is(err, dberr.ErrIO) {
		t.Fatalf("Close = %v, want ErrIO", err)
	}
	// The WAL carried everything: a clean reopen has the full state.
	expectSeq(t, path, 1, "reopen after failed checkpoints")
}

// TestBackgroundCheckpointTransientRetry: a transient failure (one rejected
// write, no fsync involved) is retried with backoff and the retry succeeds —
// Health stays clean and the checkpoint completes. The retry driver is called
// directly so the single-shot fault deterministically lands in the checkpoint
// and not in a command's own heap writes.
func TestBackgroundCheckpointTransientRetry(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{FS: ffs, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ds.ckptRetryBase = time.Millisecond
	createSeq(t, ds)
	insertSeq(t, ds, 1)
	// The checkpoint's first write to the heap fails; the retried attempt
	// succeeds.
	ffs.SetFault(vfs.Fault{Kind: vfs.OpWrite, PathSuffix: ".dsp", Err: syscall.EIO})
	ds.runCheckpointWithRetry(nil)
	if _, _, hit := ffs.Hit(); !hit {
		t.Fatalf("checkpoint never touched the heap; fault did not fire")
	}
	if ds.wal.LogSize() != 0 {
		t.Fatalf("retried checkpoint did not compact the WAL (size %d)", ds.wal.LogSize())
	}
	if err := ds.Health(); err != nil {
		t.Fatalf("Health after successful retry = %v, want nil", err)
	}
	insertSeq(t, ds, 2)
	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	expectSeq(t, path, 2, "reopen after transient checkpoint retry")
}
