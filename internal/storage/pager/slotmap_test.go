package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// buildSlotMapFile writes a heap with single-slot pages, a three-slot page
// and freed slots, records the slot map of live plus its own page, closes the
// file, and returns its path, the map page and the map.
func buildSlotMapFile(t testing.TB, dir string, pages int) (path string, live []PageID, mapPage PageID, blob []byte) {
	t.Helper()
	path = filepath.Join(dir, "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < pages; i++ {
		id := fs.Allocate()
		data := []byte{byte(i), byte(i >> 8)}
		if i == 1 {
			data = bytes.Repeat([]byte{'c'}, 2*slotPayload+10) // a three-slot chain
		}
		if err := fs.WritePage(id, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		switch {
		case i%5 == 3:
			fs.Free(id) // free: flagged on disk by the Sync below
		case i%5 != 4:
			live = append(live, id) // i%5 == 4: allocated but unreachable
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	mapPage = fs.Allocate()
	if blob, err = fs.MarshalSlotMap(mapPage, live); err != nil {
		t.Fatal(err)
	}
	next := fs.next
	if err := fs.WritePage(mapPage, blob); err != nil {
		t.Fatal(err)
	}
	if fs.next != next {
		t.Fatalf("writing the slot map grew the file from %d to %d slots: its chain was not reserved", next, fs.next)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	return path, live, mapPage, blob
}

// TestSlotMapAttach: a store attached from its slot map holds exactly the
// recorded pages and their chains, reads nothing but the map, frees every
// other slot, and keeps the map's own chain allocated.
func TestSlotMapAttach(t *testing.T) {
	path, live, mapPage, blob := buildSlotMapFile(t, t.TempDir(), 5000)
	if slotsFor(len(blob)) < 2 {
		t.Fatalf("a %d-byte map fits one slot: the test wants a chained map", len(blob))
	}
	// Three slots past the map's high-water mark, as writes after the map
	// leave them: zeroed headers read as empty chain heads.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got, err := fs.ReadPage(mapPage)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("map page before attach: %d bytes, %v", len(got), err)
	}
	if scanned, err := fs.Attach(got); scanned || err != nil {
		t.Fatalf("Attach = scanned %v, %v; want the map", scanned, err)
	}
	want := append(slices.Clone(live), mapPage)
	slices.Sort(want)
	if ids := fs.PageIDs(); !slices.Equal(ids, want) {
		t.Fatalf("attached heads = %d pages, want %d", len(ids), len(want))
	}
	if got, err := fs.ReadPage(live[1]); err != nil || len(got) != 2*slotPayload+10 {
		t.Fatalf("chained page after attach: %d bytes, %v", len(got), err)
	}
	// Fill every free slot: neither a live page nor the map may be handed
	// out, no slot twice, and the slots past the mark are among them.
	seen := make(map[PageID]bool)
	slots := fs.next
	for n := len(fs.free); n > 0; n-- {
		id := fs.Allocate()
		if seen[id] || slices.Contains(want, id) {
			t.Fatalf("Allocate handed out slot %d twice or a live one", id)
		}
		seen[id] = true
		if err := fs.WritePage(id, []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	if !seen[slots-1] || !seen[slots-3] || fs.next != slots {
		t.Fatalf("the slots past the map's high-water mark were not free (file grew from %d to %d slots)", slots, fs.next)
	}
	if got, err := fs.ReadPage(mapPage); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("map page after reusing every free slot: %d bytes, %v", len(got), err)
	}
	// Freeing the chained page releases all three of its slots.
	before := len(fs.free)
	fs.Free(live[1])
	if got := len(fs.free) - before; got != 3 {
		t.Fatalf("freeing a three-slot page freed %d slots", got)
	}
}

// TestSlotMapRefusedFallsBackToScan: a damaged map is refused as corrupt and
// the store scans its slot headers, ending where a plain scan ends.
func TestSlotMapRefusedFallsBackToScan(t *testing.T) {
	path, _, _, blob := buildSlotMapFile(t, t.TempDir(), 40)
	scan, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Attach(nil); err != nil {
		t.Fatal(err)
	}
	want := scan.PageIDs()
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(blob)
	bad[len(bad)-1] ^= 1
	if _, err := decodeSlotMap(bad, 1<<20); !errors.Is(err, dberr.ErrCorrupt) {
		t.Fatalf("damaged map: decode err = %v, want ErrCorrupt", err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if scanned, err := fs.Attach(bad); !scanned || err != nil {
		t.Fatalf("Attach(damaged map) = scanned %v, %v; want the header scan", scanned, err)
	}
	if got := fs.PageIDs(); !slices.Equal(got, want) {
		t.Fatalf("fallback heads %v, scan heads %v", got, want)
	}
}

// TestRetainIgnoresStaleLinks: a header scan that follows a slot-map attach
// reads the heads and links of pages written after the map, which the attach
// freed in memory only. Here such a page X = 3→4→5 is followed by W = 5→4,
// which reuses two of its slots, so X's stale on-disk link reaches W's live
// continuation. Retain of the reached pages frees X's head alone.
func TestRetainIgnoresStaleLinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.dsp")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r, m := fs.Allocate(), fs.Allocate()
	blob, err := fs.MarshalSlotMap(m, []PageID{r})
	if err != nil {
		t.Fatal(err)
	}
	x := fs.Allocate()
	for id, data := range map[PageID][]byte{m: blob, x: make([]byte, 2*slotPayload+1)} {
		if err := fs.WritePage(id, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(slotMap []byte) *FileStore {
		t.Helper()
		fs, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Attach(slotMap); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs = reopen(blob)
	w := fs.Allocate()
	wData := bytes.Repeat([]byte{'w'}, slotPayload+1)
	if err := fs.WritePage(w, wData); err != nil {
		t.Fatal(err)
	}
	if tail, _ := fs.chain(w); w != x+2 || !slices.Equal(tail, []PageID{x + 1}) {
		t.Fatalf("W = %d with continuations %v, want %d→%d", w, tail, x+2, x+1)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs = reopen(nil) // the header scan
	defer fs.Close()
	fs.Retain([]PageID{r, m, w})
	if ids := fs.PageIDs(); !slices.Equal(ids, []PageID{r, m, w}) {
		t.Fatalf("heads after Retain = %v, want %v", ids, []PageID{r, m, w})
	}
	if id := fs.Allocate(); id != x {
		t.Fatalf("Allocate after Retain = %d, want the stale head %d", id, x)
	}
	if id := fs.Allocate(); id != fs.next-1 {
		t.Fatalf("Allocate after Retain = %d: a live slot was on the free list", id)
	}
	if got, err := fs.ReadPage(w); err != nil || !bytes.Equal(got, wData) {
		t.Fatalf("W after Retain: %d bytes, %v", len(got), err)
	}
}

// FuzzSlotMapDecode: no input panics the decoder or allocates more than a
// small multiple of its size; every refusal is classed ErrCorrupt and leaves
// Attach on the header scan; an accepted map yields a store whose chains are
// whole and disjoint, free cleanly, and whose free list hands out no slot
// twice.
func FuzzSlotMapDecode(f *testing.F) {
	path, _, _, blob := buildSlotMapFile(f, f.TempDir(), 12)
	template, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, in []byte) {
		// TotalAlloc is process-wide, so the bound carries slack for what
		// the fuzzing engine allocates meanwhile.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, derr := decodeSlotMap(in, PageID(len(template)/PageSize))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(in))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
		}
		if derr != nil && !errors.Is(derr, dberr.ErrCorrupt) {
			t.Fatalf("refusal %v is not classed ErrCorrupt", derr)
		}

		heap := filepath.Join(t.TempDir(), "heap.dsp")
		if err := os.WriteFile(heap, template, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStoreVFS(vfs.OS(), heap)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		scanned, err := fs.Attach(in)
		if err != nil || scanned != (derr != nil) {
			t.Fatalf("Attach = scanned %v, %v; decode err %v", scanned, err, derr)
		}
		owned := make(map[PageID]bool)
		for _, id := range fs.PageIDs() {
			tail, err := fs.chain(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tail {
				if owned[c] {
					t.Fatalf("slot %d is in two chains", c)
				}
				owned[c] = true
			}
		}
		for _, id := range fs.PageIDs() {
			fs.Free(id)
		}
		if fs.PageCount() != 0 {
			t.Fatalf("%d heads left after freeing every page", fs.PageCount())
		}
		seen := make(map[PageID]bool)
		for n := len(fs.free); n > 0; n-- {
			id := fs.Allocate()
			if id == InvalidPage || seen[id] {
				t.Fatalf("Allocate = %d: free list hands out a slot twice", id)
			}
			seen[id] = true
		}
	})
}
