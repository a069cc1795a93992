package txn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dataspread/dataspread/internal/storage/vfs"
)

func commitOps(t *testing.T, m *Manager, ops ...Op) {
	t.Helper()
	if err := m.Append(ops...); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := NewManager()
	m.AttachLog(&buf)
	commitOps(t, m, Op{Kind: OpCellSet, Table: "", Detail: "Sheet1!A1", Args: []string{"Sheet1", "A1", "42"}})
	commitOps(t, m,
		Op{Kind: OpSQL, Detail: "ddl", Args: []string{"CREATE TABLE t (a INT)"}},
		Op{Kind: OpSQL, Detail: "insert", Args: []string{"INSERT INTO t VALUES (?)", "N1"}},
	)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	re := NewManager()
	recs, valid, err := re.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(buf.Len()) {
		t.Errorf("valid = %d, want %d", valid, buf.Len())
	}
	if !reflect.DeepEqual(recs, m.WAL()) {
		t.Errorf("replayed records differ:\n got %#v\nwant %#v", recs, m.WAL())
	}
	// The recovered manager continues the LSN sequence instead of reusing it.
	commitOps(t, re, Op{Kind: OpCellSet, Args: []string{"Sheet1", "B1", "x"}})
	wal := re.WAL()
	if got := wal[len(wal)-1].LSN; got != recs[len(recs)-1].LSN+1 {
		t.Errorf("post-replay LSN = %d, want %d", got, recs[len(recs)-1].LSN+1)
	}
}

func TestWALEmptyLog(t *testing.T) {
	recs, valid, err := NewManager().Replay(bytes.NewReader(nil))
	if err != nil || valid != 0 || len(recs) != 0 {
		t.Fatalf("Replay(empty) = %v, %d, %v", recs, valid, err)
	}
}

// walBytes returns a log with n committed single-op records.
func walBytes(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	m := NewManager()
	m.AttachLog(&buf)
	for i := 0; i < n; i++ {
		commitOps(t, m, Op{Kind: OpCellSet, Args: []string{"Sheet1", "A1", "payload-payload-payload"}})
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWALTornTailIsTruncated(t *testing.T) {
	full := walBytes(t, 2)
	frameLen := len(full) / 2
	// Cut the log mid-way through the second frame's payload, then also
	// mid-way through its header: both are torn tails, not corruption.
	for _, cut := range []int{frameLen + frameHeaderSize + 3, frameLen + 3} {
		recs, valid, err := NewManager().Replay(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 1 {
			t.Fatalf("cut %d: recovered %d records, want 1", cut, len(recs))
		}
		if valid != int64(frameLen) {
			t.Errorf("cut %d: valid = %d, want %d", cut, valid, frameLen)
		}
	}
}

func TestWALChecksumMismatchRejected(t *testing.T) {
	full := walBytes(t, 2)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xFF // flip a payload byte of the final frame
	_, _, err := NewManager().Replay(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("Replay(corrupt) err = %v, want ErrCorruptLog", err)
	}
}

func TestDecodeRecordsStrict(t *testing.T) {
	full := walBytes(t, 1)
	recs, err := DecodeRecords(full)
	if err != nil || len(recs) != 1 {
		t.Fatalf("DecodeRecords = %v, %v", recs, err)
	}
	if _, err := DecodeRecords(full[:len(full)-2]); !errors.Is(err, ErrCorruptLog) {
		t.Errorf("DecodeRecords(torn) err = %v, want ErrCorruptLog", err)
	}
}

func TestWALGroupCommitBatchesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := NewManager()
	m.AttachLog(f)
	m.SetGroupCommit(3)
	for i := 0; i < 2; i++ {
		commitOps(t, m, Op{Kind: OpCellSet, Args: []string{"Sheet1", "A1", "v"}})
	}
	if info, _ := os.Stat(path); info.Size() != 0 {
		t.Fatalf("log flushed before the group filled: %d bytes", info.Size())
	}
	commitOps(t, m, Op{Kind: OpCellSet, Args: []string{"Sheet1", "A1", "v"}})
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("third commit did not flush the group")
	}
	recs, _, err := NewManager().Replay(bytes.NewReader(mustRead(t, path)))
	if err != nil || len(recs) != 3 {
		t.Fatalf("replay after group commit: %d records, %v", len(recs), err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecoverFileTruncatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recover.wal")
	full := walBytes(t, 2)
	torn := append(append([]byte(nil), full...), 0xDE, 0xAD, 0xBE) // torn third frame
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewManager()
	recs, err := m.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if info, _ := os.Stat(path); info.Size() != int64(len(full)) {
		t.Errorf("torn tail not truncated: size %d, want %d", info.Size(), len(full))
	}
	// New commits append cleanly after the recovered prefix.
	commitOps(t, m, Op{Kind: OpSQL, Args: []string{"DELETE FROM t"}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	recs2, _, err := NewManager().Replay(bytes.NewReader(mustRead(t, path)))
	if err != nil || len(recs2) != 3 {
		t.Fatalf("replay after append: %d records, %v", len(recs2), err)
	}
	if recs2[2].LSN != recs2[1].LSN+1 {
		t.Errorf("appended LSN = %d, want %d", recs2[2].LSN, recs2[1].LSN+1)
	}
}

// TestTruncateThroughKeepsTail: compaction through a watermark drops covered
// records but preserves — durably — everything committed above it.
func TestTruncateThroughKeepsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	m := NewManager()
	if _, err := m.RecoverFileVFS(vfs.OS(), path); err != nil {
		t.Fatal(err)
	}
	commit := func(detail string) uint64 {
		if err := m.Append(Op{Kind: OpSQL, Detail: detail}); err != nil {
			t.Fatal(err)
		}
		return m.LastLSN()
	}
	commit("a")
	watermark := commit("b")
	commit("c")
	commit("d")
	if m.LogSize() == 0 {
		t.Fatal("LogSize did not track appends")
	}
	if err := m.TruncateThrough(watermark); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re := NewManager()
	recs, err := re.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(recs) != 2 || recs[0].Ops[0].Detail != "c" || recs[1].Ops[0].Detail != "d" {
		t.Fatalf("recovered tail = %+v, want exactly c,d", recs)
	}
	for _, rec := range recs {
		if rec.LSN <= watermark {
			t.Fatalf("record %q kept an LSN below the watermark", rec.Ops[0].Detail)
		}
	}
}

// TestTruncateThroughRepeatedCompactions: the compaction rename must keep
// landing at the original WAL path. (A regression here once left the second
// compaction renaming onto the temp path, freezing the real log and losing
// every append after it.)
func TestTruncateThroughRepeatedCompactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	m := NewManager()
	if _, err := m.RecoverFileVFS(vfs.OS(), path); err != nil {
		t.Fatal(err)
	}
	commit := func(detail string) uint64 {
		if err := m.Append(Op{Kind: OpSQL, Detail: detail}); err != nil {
			t.Fatal(err)
		}
		return m.LastLSN()
	}
	for round := 0; round < 3; round++ {
		w := commit(fmt.Sprintf("covered-%d", round))
		commit(fmt.Sprintf("tail-%d", round))
		// Each round's watermark covers everything before it, so after the
		// final compaction exactly one record survives — at the original
		// path, not wherever the previous rename's handle pointed.
		if err := m.TruncateThrough(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewManager()
	recs, err := re.RecoverFileVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(recs) != 1 || recs[0].Ops[0].Detail != "tail-2" {
		t.Fatalf("recovered %+v, want exactly [tail-2]", recs)
	}
}
