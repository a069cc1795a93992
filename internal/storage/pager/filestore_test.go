package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openTempStore(t *testing.T) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return fs, path
}

func TestFileStoreAllocateReadWrite(t *testing.T) {
	fs, _ := openTempStore(t)
	defer fs.Close()
	id := fs.Allocate()
	if id == InvalidPage {
		t.Fatal("Allocate returned InvalidPage")
	}
	if got, err := fs.ReadPage(id); err != nil || len(got) != 0 {
		t.Fatalf("fresh page = %q, %v", got, err)
	}
	if err := fs.WritePage(id, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("ReadPage = %q", got)
	}
	if _, err := fs.ReadPage(42); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("missing page err = %v", err)
	}
	if err := fs.WritePage(42, nil); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("missing page write err = %v", err)
	}
	if !fs.Exists(id) || fs.Exists(42) {
		t.Error("Exists misreports")
	}
	st := fs.Stats()
	if st.Allocs != 1 || st.Reads != 2 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFileStoreOversizedPageChains(t *testing.T) {
	fs, _ := openTempStore(t)
	defer fs.Close()
	id := fs.Allocate()
	big := bytes.Repeat([]byte("abcdefgh"), 3*PageSize/8) // 3 pages of payload
	if err := fs.WritePage(id, big); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("oversized round trip: got %d bytes, want %d", len(got), len(big))
	}
	// Multi-block writes are charged like the in-memory Store.
	if w := fs.Stats().Writes; w != uint64(1+len(big)/PageSize) {
		t.Errorf("Writes = %d, want %d", w, 1+len(big)/PageSize)
	}
	// Shrinking releases the continuation slots for reuse.
	if err := fs.WritePage(id, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadPage(id); !bytes.Equal(got, []byte("small")) {
		t.Fatalf("shrunk page = %q", got)
	}
	before := fs.next
	id2 := fs.Allocate()
	if id2 >= before {
		t.Errorf("Allocate = %d: expected a recycled continuation slot below %d", id2, before)
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	fs, path := openTempStore(t)
	a := fs.Allocate()
	b := fs.Allocate()
	c := fs.Allocate()
	big := bytes.Repeat([]byte{0xAB}, PageSize+100)
	if err := fs.WritePage(a, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WritePage(b, big); err != nil {
		t.Fatal(err)
	}
	fs.Free(c)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Attach(nil); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.ReadPage(a); err != nil || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("page a after reopen = %q, %v", got, err)
	}
	if got, err := re.ReadPage(b); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("page b after reopen: %d bytes, %v", len(got), err)
	}
	if re.Exists(c) {
		t.Error("freed page resurrected after reopen")
	}
	if n := re.PageCount(); n != 2 {
		t.Errorf("PageCount after reopen = %d, want 2", n)
	}
	// The persistent free list hands the freed slot back out.
	if id := re.Allocate(); id != c {
		t.Errorf("Allocate after reopen = %d, want recycled %d", id, c)
	}
}

func TestFileStoreDoubleClose(t *testing.T) {
	fs, _ := openTempStore(t)
	id := fs.Allocate()
	if err := fs.WritePage(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := fs.ReadPage(id); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadPage after Close err = %v", err)
	}
	if err := fs.WritePage(id, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("WritePage after Close err = %v", err)
	}
	if err := fs.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close err = %v", err)
	}
	if id := fs.Allocate(); id != InvalidPage {
		t.Errorf("Allocate after Close = %d", id)
	}
}

func TestFileStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-heap")
	if err := os.WriteFile(path, bytes.Repeat([]byte("junk"), PageSize/4), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("OpenFileStore accepted a file with a bad magic")
	}
}

func TestBufferPoolOverFileStore(t *testing.T) {
	fs, _ := openTempStore(t)
	defer fs.Close()
	pool := NewBufferPool(fs, 2)
	a := pool.Allocate()
	b := pool.Allocate()
	c := pool.Allocate()
	for i, id := range []PageID{a, b, c} {
		if err := pool.Put(id, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range []PageID{a, b, c} {
		got, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{byte('a' + i)}) {
			t.Errorf("page %d = %q", id, got)
		}
	}
	if st := pool.Stats(); st.Misses == 0 {
		t.Error("expected LRU evictions to force store reads")
	}
}
