package txn

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
)

func TestCommitEmptyTxnProducesNoWAL(t *testing.T) {
	var buf bytes.Buffer
	m := NewManager()
	m.AttachLog(&buf)
	if err := m.Append(); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(m.WAL()) != 0 || buf.Len() != 0 {
		t.Errorf("empty append wrote %d records, %d bytes", len(m.WAL()), buf.Len())
	}
	if m.LastLSN() != 0 {
		t.Errorf("empty append consumed LSN %d", m.LastLSN())
	}
}

// TestAppendPinnedFrame pins the WAL's byte format: two appends, the first
// of a parameterized SQL statement and a cell edit, the second of one more
// command, must frame to exactly these bytes (LSN and transaction id 1, then
// 2). Logs written by earlier builds replay only while this holds.
func TestAppendPinnedFrame(t *testing.T) {
	const want = "790000008276fdd50101020373716c001f5550444154452074205345542076203d203f205748455245206964203d203f031f5550444154452074205345542076203d203f205748455245206964203d203f034e3432065348656c6c6f0863656c6c5f73657400095368656574312141310306536865657431024131053d42312b31" +
		"1d000000d6c1ee1b020201096164645f736865657400065368656574320106536865657432"
	var buf bytes.Buffer
	m := NewManager()
	m.AttachLog(&buf)
	if err := m.Append(
		Op{Kind: OpSQL, Detail: "UPDATE t SET v = ? WHERE id = ?", Args: []string{"UPDATE t SET v = ? WHERE id = ?", "N42", "SHello"}},
		Op{Kind: OpCellSet, Detail: "Sheet1!A1", Args: []string{"Sheet1", "A1", "=B1+1"}},
	); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Op{Kind: OpAddSheet, Detail: "Sheet2", Args: []string{"Sheet2"}}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("WAL frames changed:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentTransactions: appends from many goroutines each commit one
// record, under distinct transaction ids and strictly increasing LSNs.
func TestConcurrentTransactions(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := m.Append(Op{Kind: OpSQL, Args: []string{"DELETE FROM t"}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	wal := m.WAL()
	if len(wal) != 16*25 {
		t.Errorf("WAL has %d records, want %d", len(wal), 16*25)
	}
	seen := make(map[uint64]bool)
	for i, r := range wal {
		if seen[r.TxnID] {
			t.Fatal("duplicate txn id in WAL")
		}
		seen[r.TxnID] = true
		if i > 0 && r.LSN <= wal[i-1].LSN {
			t.Fatal("LSNs must be strictly increasing")
		}
	}
}
