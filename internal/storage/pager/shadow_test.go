package pager

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestBufferPoolCopyOnWrite verifies the shadow-paging invariant: once a
// physical page is declared durable, no write-back — flush or eviction —
// overwrites it in place; the logical page relocates and the durable bytes
// stay readable on the backend until CommitCheckpoint frees them.
func TestBufferPoolCopyOnWrite(t *testing.T) {
	store := NewStore()
	bp := NewBufferPool(store, 4)
	id := bp.Allocate()
	v1 := []byte("durable image v1")
	if err := bp.Put(id, v1); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	phys1 := bp.Resolve(id)
	bp.SetDurable([]PageID{phys1})

	// Overwrite and flush: must relocate, not overwrite phys1.
	v2 := []byte("new image v2")
	if err := bp.Put(id, v2); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	phys2 := bp.Resolve(id)
	if phys2 == phys1 {
		t.Fatal("protected page was written in place")
	}
	if raw, err := store.ReadPage(phys1); err != nil || !bytes.Equal(raw, v1) {
		t.Fatalf("durable image torn: %q %v", raw, err)
	}
	if raw, err := store.ReadPage(phys2); err != nil || !bytes.Equal(raw, v2) {
		t.Fatalf("relocated image wrong: %q %v", raw, err)
	}
	// The logical id still reads the newest content through the pool.
	if data, err := bp.Get(id); err != nil || !bytes.Equal(data, v2) {
		t.Fatalf("Get(%d) = %q %v", id, data, err)
	}

	// Checkpoint commit releases the superseded durable page — except that
	// phys1 doubles as the live logical id, so instead of returning to the
	// backend free list (where it could be recycled into a colliding new
	// logical id) it is parked for physical-only reuse and must still exist.
	bp.BeginCheckpoint([]PageID{phys2})
	bp.CommitCheckpoint()
	if !store.Exists(phys1) {
		t.Fatal("superseded page sharing the live logical id must be parked, not freed")
	}
	if !store.Exists(phys2) {
		t.Fatal("new durable page freed at commit")
	}

	// Relocations after BeginCheckpoint must survive that commit (the new
	// root references them) and only die at the *next* commit.
	v3 := []byte("post-capture v3")
	if err := bp.Put(id, v3); err != nil {
		t.Fatal(err)
	}
	bp.BeginCheckpoint([]PageID{phys2}) // capture happens before the flush below
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	phys3 := bp.Resolve(id)
	if phys3 == phys2 {
		t.Fatal("pending page was written in place")
	}
	bp.CommitCheckpoint()
	if !store.Exists(phys2) {
		t.Fatal("page referenced by the committed root was freed early")
	}
	bp.BeginCheckpoint([]PageID{phys3})
	bp.CommitCheckpoint()
	if store.Exists(phys2) {
		t.Fatal("superseded page survived the next commit")
	}
	_ = v3
}

// TestBufferPoolVersions: every content-changing event — Put, Free, and
// Allocate reusing a recycled id — must advance the page version, so decoded
// caches keyed by (id, version) can never serve a stale image.
func TestBufferPoolVersions(t *testing.T) {
	store := NewStore()
	bp := NewBufferPool(store, 4)
	id := bp.Allocate()
	v0 := bp.Version(id)
	if err := bp.Put(id, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if bp.Version(id) == v0 {
		t.Fatal("Put did not bump the version")
	}
	v1 := bp.Version(id)
	bp.Free(id)
	if bp.Version(id) == v1 {
		t.Fatal("Free did not bump the version")
	}
}

// TestBufferPoolFreeProtectedDeferred: freeing a durable page defers the
// backend free until the next checkpoint commit.
func TestBufferPoolFreeProtectedDeferred(t *testing.T) {
	store := NewStore()
	bp := NewBufferPool(store, 4)
	id := bp.Allocate()
	if err := bp.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	phys := bp.Resolve(id)
	bp.SetDurable([]PageID{phys})
	bp.Free(id)
	if !store.Exists(phys) {
		t.Fatal("durable page freed in place")
	}
	bp.BeginCheckpoint(nil)
	bp.CommitCheckpoint()
	if store.Exists(phys) {
		t.Fatal("freed durable page survived the commit")
	}
}

// TestAllocateNeverCollidesWithRelocatedLogicalID is the regression test for
// the physical/logical id-collision corruption: after a relocated page's old
// physical slot is freed at checkpoint commit, FileStore's LIFO free list
// hands it right back — and it must NOT become a new logical page id while
// the relocated page still lives under that id.
func TestAllocateNeverCollidesWithRelocatedLogicalID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	bp := NewBufferPool(fs, 8)
	id := bp.Allocate()
	if err := bp.Put(id, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	physOld := bp.Resolve(id)
	bp.SetDurable([]PageID{physOld})
	// Relocate by writing again; commit a checkpoint so physOld is released.
	if err := bp.Put(id, []byte("precious v2")); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bp.BeginCheckpoint([]PageID{bp.Resolve(id)})
	bp.CommitCheckpoint()
	// The backend would recycle physOld (== the live logical id) first;
	// Allocate must skip it.
	for i := 0; i < 4; i++ {
		n := bp.Allocate()
		if n == id {
			t.Fatalf("Allocate handed out live logical id %d", id)
		}
	}
	if data, err := bp.Get(id); err != nil || string(data) != "precious v2" {
		t.Fatalf("live page corrupted after id recycling: %q %v", data, err)
	}
	// Parked physical pages are still usable as relocation targets.
	bp.SetDurable([]PageID{bp.Resolve(id)})
	if err := bp.Put(id, []byte("precious v3")); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if data, err := bp.Get(id); err != nil || string(data) != "precious v3" {
		t.Fatalf("relocation onto parked page lost data: %q %v", data, err)
	}
}
