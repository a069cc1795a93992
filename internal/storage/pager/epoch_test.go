package pager

import (
	"bytes"
	"fmt"
	"testing"
)

func mustAlloc(t *testing.T, bp *BufferPool) PageID {
	t.Helper()
	id, err := bp.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func getAt(t *testing.T, bp *BufferPool, e uint64, id PageID) []byte {
	t.Helper()
	data, _, err := bp.GetAt(e, id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEpochSnapshotSeesSupersededPut(t *testing.T) {
	for _, capacity := range []int{64, 0} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			bp := NewBufferPool(NewStore(), capacity)
			id := mustAlloc(t, bp)
			v1, v2 := []byte("version-one"), []byte("version-two")
			if err := bp.Put(id, v1); err != nil {
				t.Fatal(err)
			}
			e := bp.OpenEpoch()
			if err := bp.Put(id, v2); err != nil {
				t.Fatal(err)
			}
			if got := getAt(t, bp, e, id); !bytes.Equal(got, v1) {
				t.Fatalf("GetAt(e) = %q, want %q", got, v1)
			}
			cur, err := bp.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cur, v2) {
				t.Fatalf("Get = %q, want %q", cur, v2)
			}
			if pinned, retained := bp.EpochStats(); pinned != 1 || retained != 1 {
				t.Fatalf("EpochStats = (%d, %d), want (1, 1)", pinned, retained)
			}
			bp.ReleaseEpoch(e)
			if pinned, retained := bp.EpochStats(); pinned != 0 || retained != 0 {
				t.Fatalf("after release EpochStats = (%d, %d), want (0, 0)", pinned, retained)
			}
		})
	}
}

func TestEpochSnapshotSurvivesFree(t *testing.T) {
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	v1 := []byte("gone-but-pinned")
	if err := bp.Put(id, v1); err != nil {
		t.Fatal(err)
	}
	e := bp.OpenEpoch()
	bp.Free(id)
	if got := getAt(t, bp, e, id); !bytes.Equal(got, v1) {
		t.Fatalf("GetAt after Free = %q, want %q", got, v1)
	}
	bp.ReleaseEpoch(e)
	if _, retained := bp.EpochStats(); retained != 0 {
		t.Fatalf("retained = %d after last release, want 0", retained)
	}
}

func TestEpochsSeeDistinctVersions(t *testing.T) {
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	v1, v2, v3 := []byte("v1"), []byte("v2"), []byte("v3")
	if err := bp.Put(id, v1); err != nil {
		t.Fatal(err)
	}
	e1 := bp.OpenEpoch()
	if err := bp.Put(id, v2); err != nil {
		t.Fatal(err)
	}
	e2 := bp.OpenEpoch()
	if err := bp.Put(id, v3); err != nil {
		t.Fatal(err)
	}
	if got := getAt(t, bp, e1, id); !bytes.Equal(got, v1) {
		t.Fatalf("GetAt(e1) = %q, want v1", got)
	}
	if got := getAt(t, bp, e2, id); !bytes.Equal(got, v2) {
		t.Fatalf("GetAt(e2) = %q, want v2", got)
	}
	// Releasing the older epoch frees only the version exclusive to it.
	bp.ReleaseEpoch(e1)
	if _, retained := bp.EpochStats(); retained != 1 {
		t.Fatalf("retained = %d after releasing e1, want 1", retained)
	}
	if got := getAt(t, bp, e2, id); !bytes.Equal(got, v2) {
		t.Fatalf("GetAt(e2) after e1 release = %q, want v2", got)
	}
	bp.ReleaseEpoch(e2)
	if _, retained := bp.EpochStats(); retained != 0 {
		t.Fatalf("retained = %d after releasing all, want 0", retained)
	}
}

func TestEpochVersionCounterMatchesSnapshot(t *testing.T) {
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	if err := bp.Put(id, []byte("old")); err != nil {
		t.Fatal(err)
	}
	oldVer := bp.Version(id)
	e := bp.OpenEpoch()
	if err := bp.Put(id, []byte("new")); err != nil {
		t.Fatal(err)
	}
	_, ver, err := bp.GetAt(e, id)
	if err != nil {
		t.Fatal(err)
	}
	if ver != oldVer {
		t.Fatalf("snapshot ver = %d, want pre-change %d", ver, oldVer)
	}
	if cur := bp.Version(id); cur == oldVer {
		t.Fatal("current version did not advance past the snapshot's")
	}
	// VersionAt is GetAt's version without the bytes, at a pinned epoch and
	// at the all-ones "current" epoch, and costs no pool read.
	before := bp.Stats()
	if got, ok := bp.VersionAt(e, id); !ok || got != oldVer {
		t.Fatalf("VersionAt(e) = %d, %v, want %d", got, ok, oldVer)
	}
	if got, ok := bp.VersionAt(^uint64(0), id); !ok || got != bp.Version(id) {
		t.Fatalf("VersionAt(current) = %d, %v, want %d", got, ok, bp.Version(id))
	}
	if after := bp.Stats(); after != before {
		t.Fatalf("VersionAt touched the pool: %+v -> %+v", before, after)
	}
	bp.ReleaseEpoch(e)
}

func TestEpochUnchangedPageServedFromCurrent(t *testing.T) {
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	v := []byte("steady")
	if err := bp.Put(id, v); err != nil {
		t.Fatal(err)
	}
	e := bp.OpenEpoch()
	defer bp.ReleaseEpoch(e)
	if got := getAt(t, bp, e, id); !bytes.Equal(got, v) {
		t.Fatalf("GetAt = %q, want %q", got, v)
	}
	if _, retained := bp.EpochStats(); retained != 0 {
		t.Fatalf("retained = %d for an unchanged page, want 0", retained)
	}
}

func TestNoRetentionWithoutReaders(t *testing.T) {
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	for i := 0; i < 10; i++ {
		if err := bp.Put(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, retained := bp.EpochStats(); retained != 0 {
		t.Fatalf("retained = %d with no open epochs, want 0", retained)
	}
}

func TestEpochSnapshotAcrossCheckpointProtocol(t *testing.T) {
	// A snapshot opened before a checkpoint must keep reading its frozen
	// content while the checkpoint relocates pages copy-on-write and
	// commits; the superseded physical pages it frees are invisible to the
	// logical snapshot.
	bp := NewBufferPool(NewStore(), 64)
	id := mustAlloc(t, bp)
	v1, v2 := []byte("durable-v1"), []byte("post-ckpt-v2")
	if err := bp.Put(id, v1); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bp.SetDurable([]PageID{bp.Resolve(id)})
	e := bp.OpenEpoch()
	if err := bp.Put(id, v2); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil { // COW-relocates the protected page
		t.Fatal(err)
	}
	bp.BeginCheckpoint([]PageID{bp.Resolve(id)})
	bp.CommitCheckpoint()
	if got := getAt(t, bp, e, id); !bytes.Equal(got, v1) {
		t.Fatalf("snapshot after checkpoint = %q, want %q", got, v1)
	}
	cur, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, v2) {
		t.Fatalf("current after checkpoint = %q, want %q", cur, v2)
	}
	bp.ReleaseEpoch(e)
}
