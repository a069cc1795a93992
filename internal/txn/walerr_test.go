package txn

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// TestErrCorruptLogClassification pins the sentinel taxonomy: every WAL
// corruption error must satisfy errors.Is for both the package-level
// ErrCorruptLog and the cross-package dberr.ErrCorrupt it wraps, so callers
// outside txn can classify recovery failures without importing this package's
// sentinel.
func TestErrCorruptLogClassification(t *testing.T) {
	if !errors.Is(ErrCorruptLog, dberr.ErrCorrupt) {
		t.Fatal("ErrCorruptLog must wrap dberr.ErrCorrupt")
	}

	frames := EncodeRecords([]Record{{
		LSN:   1,
		TxnID: 1,
		Ops:   []Op{{Kind: OpCellSet, Table: "t", Detail: "row 1"}},
	}})
	// Flip a payload byte so the frame's CRC no longer matches.
	frames[len(frames)-1] ^= 0xFF
	if _, err := DecodeRecords(frames); err == nil {
		t.Fatal("DecodeRecords accepted a frame with a bad checksum")
	} else if !errors.Is(err, ErrCorruptLog) || !errors.Is(err, dberr.ErrCorrupt) {
		t.Fatalf("checksum error = %v, want errors.Is ErrCorruptLog and dberr.ErrCorrupt", err)
	}
}

// TestRecoverFileTruncatesCorruptTail verifies that RecoverFileVFS treats a
// corrupt tail as end-of-log (the committed prefix survives, the tail is
// truncated) rather than propagating ErrCorruptLog — and that the manager is
// left attached and usable, i.e. the error-join rewrite of the failure paths
// did not disturb the success path.
func TestRecoverFileTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	good := EncodeRecords([]Record{{
		LSN:   1,
		TxnID: 1,
		Ops:   []Op{{Kind: OpCellSet, Table: "t", Detail: "row 1"}},
	}})
	bad := EncodeRecords([]Record{{
		LSN:   2,
		TxnID: 2,
		Ops:   []Op{{Kind: OpCellSet, Table: "t", Detail: "row 2"}},
	}})
	bad[len(bad)-1] ^= 0xFF
	if err := os.WriteFile(path, append(append([]byte{}, good...), bad...), 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewManager()
	recs, err := m.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatalf("RecoverFileVFS: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("recovered %v, want the single committed record with LSN 1", recs)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(good)) {
		t.Fatalf("log size after recovery = %d, want the valid prefix %d", info.Size(), len(good))
	}
}
