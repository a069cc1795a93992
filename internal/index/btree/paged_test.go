package btree

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

func newTestPool() *pager.BufferPool { return pager.NewBufferPool(pager.NewStore(), 64) }

// fences flushes the tree and the pool and returns the fence list a catalog
// would persist, pages resolved to their backend ids.
func fences(t testing.TB, tr *Tree, pool *pager.BufferPool) []Fence {
	t.Helper()
	if err := tr.Flush(pool); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	out := tr.Leaves()
	for i, f := range out {
		if f.Page == pager.InvalidPage {
			t.Fatalf("leaf %x has no page after Flush", f.First)
		}
		out[i] = Fence{First: append([]byte(nil), f.First...), Page: pool.Resolve(f.Page)}
	}
	return out
}

// reattach checkpoints the tree into pool's backend and returns a twin
// attached over the same pages through a fresh pool, no leaf loaded — what a
// reopen does.
func reattach(t testing.TB, tr *Tree, pool *pager.BufferPool) *Tree {
	t.Helper()
	twin, err := Attach(pager.NewBufferPool(pool.Store(), 64), tr.Len(), fences(t, tr, pool))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return twin
}

func fill(t testing.TB, tr *Tree, ids []int) {
	t.Helper()
	for _, i := range ids {
		set(t, tr, EncodeUint64(uint64(i)), uint64(i))
	}
}

func seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestLeavesFillOnePage: however the keys arrive, no flushed leaf outgrows a
// page slot, and an ascending load — the primary key of an append-only
// table — packs its pages instead of leaving them half empty.
func TestLeavesFillOnePage(t *testing.T) {
	const n = 50000
	for _, c := range []struct {
		name    string
		ids     []int
		minFill float64
	}{
		{"ascending", seq(n), 0.95},
		{"random", rand.New(rand.NewSource(7)).Perm(n), 0.55},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := newTestPool()
			tr := New()
			fill(t, tr, c.ids)
			total := 0
			fs := fences(t, tr, pool)
			for _, f := range fs {
				page, err := pool.Store().ReadPage(f.Page)
				if err != nil {
					t.Fatal(err)
				}
				if len(page) > pager.PagePayload {
					t.Fatalf("leaf page %d holds %d bytes, a slot takes %d", f.Page, len(page), pager.PagePayload)
				}
				total += len(page)
			}
			if fill := float64(total) / float64(len(fs)*pager.PagePayload); fill < c.minFill {
				t.Errorf("%d leaves filled to %.0f%%, want at least %.0f%%", len(fs), 100*fill, 100*c.minFill)
			}
		})
	}
}

// TestFlushWritesOnlyDirtyLeaves: a flush after touching k leaves of a large
// tree writes k pages, and an attached tree that loaded nothing writes none.
func TestFlushWritesOnlyDirtyLeaves(t *testing.T) {
	pool := newTestPool()
	store := pool.Store()
	tr := New()
	fill(t, tr, seq(50000))
	nLeaves := len(fences(t, tr, pool))
	if nLeaves < 100 {
		t.Fatalf("only %d leaves: the test needs a tree much larger than its dirty set", nLeaves)
	}
	writes := func(tr *Tree) uint64 {
		before := store.Stats().Writes
		fences(t, tr, pool)
		return store.Stats().Writes - before
	}
	if w := writes(tr); w != 0 {
		t.Errorf("flush of an unchanged tree wrote %d pages", w)
	}
	set(t, tr, EncodeUint64(10), 99)   // value change in the first leaf
	del(t, tr, EncodeUint64(25000))    // delete in the middle
	set(t, tr, EncodeUint64(1<<40), 1) // append to the last leaf
	set(t, tr, EncodeUint64(10), 99)   // no change: must not dirty anything more
	if w := writes(tr); w != 3 {
		t.Errorf("flush after touching 3 leaves wrote %d pages", w)
	}

	twin := reattach(t, tr, pool)
	pool = pager.NewBufferPool(store, 64)
	if w := writes(twin); w != 0 {
		t.Errorf("flush of a freshly attached tree wrote %d pages", w)
	}
	set(t, twin, EncodeUint64(30000), 7)
	if w := writes(twin); w != 1 {
		t.Errorf("flush after one update on an attached tree wrote %d pages", w)
	}
}

// TestFlushDropsEmptiedLeaves: Delete never unlinks a leaf, so a flush must —
// or every leaf a bulk delete empties would keep its page forever.
func TestFlushDropsEmptiedLeaves(t *testing.T) {
	pool := newTestPool()
	store := pool.Store().(*pager.Store)
	tr := New()
	const n = 50000
	fill(t, tr, seq(n))
	before := len(fences(t, tr, pool))
	if got := store.PageCount(); got != before {
		t.Fatalf("%d pages allocated for %d leaves", got, before)
	}
	for i := 5000; i < 45000; i++ {
		if !del(t, tr, EncodeUint64(uint64(i))) {
			t.Fatalf("key %d missing", i)
		}
	}
	after := fences(t, tr, pool)
	if len(after) > before/4 {
		t.Errorf("%d of %d leaves survive deleting 80%% of the keys in one run", len(after), before)
	}
	if got := store.PageCount(); got != len(after) {
		t.Errorf("%d pages still allocated for %d leaves: emptied leaves leak their pages", got, len(after))
	}
	// The pruned structure still routes every key, old and new.
	check := func(tr *Tree) {
		t.Helper()
		for _, i := range []int{0, 4999, 5000, 30000, 44999, 45000, n - 1} {
			_, ok := get(t, tr, EncodeUint64(uint64(i)))
			if want := i < 5000 || i >= 45000; ok != want {
				t.Fatalf("key %d present=%v, want %v", i, ok, want)
			}
		}
		count := 0
		ascend(t, tr, nil, nil, func([]byte, uint64) bool { count++; return true })
		if count != tr.Len() || count != n-40000 {
			t.Fatalf("scan sees %d keys, Len %d, want %d", count, tr.Len(), n-40000)
		}
	}
	check(tr)
	check(reattach(t, tr, pool))
	fill(t, tr, []int{20000, 20001, 5000})
	if _, ok := get(t, tr, EncodeUint64(20001)); !ok {
		t.Fatal("insert into a pruned key range lost")
	}

	// Emptying the tree altogether leaves no page and no fence behind.
	ascendAll := func() (keys [][]byte) {
		ascend(t, tr, nil, nil, func(k []byte, _ uint64) bool { keys = append(keys, k); return true })
		return keys
	}
	for _, k := range ascendAll() {
		del(t, tr, k)
	}
	if fs := fences(t, tr, pool); len(fs) != 0 || store.PageCount() != 0 {
		t.Errorf("empty tree keeps %d fences and %d pages", len(fs), store.PageCount())
	}
	twin := reattach(t, tr, pool)
	set(t, twin, []byte("again"), 1)
	if v, ok := get(t, twin, []byte("again")); !ok || v != 1 || twin.Len() != 1 {
		t.Error("attached empty tree does not accept inserts")
	}
}

// TestOversizedEntry: a key larger than a page cannot share or split; it
// keeps a leaf of its own that the pager spills over several slots.
func TestOversizedEntry(t *testing.T) {
	pool := newTestPool()
	tr := New()
	big := func(b byte) []byte { return bytes.Repeat([]byte{b}, 3*pager.PageSize) }
	set(t, tr, big('m'), 1)
	set(t, tr, big('a'), 2)
	set(t, tr, big('z'), 3)
	fill(t, tr, seq(500))
	twin := reattach(t, tr, pool)
	for i, b := range []byte{'m', 'a', 'z'} {
		if v, ok := get(t, twin, big(b)); !ok || v != uint64(i+1) {
			t.Errorf("oversized key %c = %d,%v", b, v, ok)
		}
	}
	if twin.Len() != 503 {
		t.Errorf("Len = %d", twin.Len())
	}
}

// TestDamagedLeafIsAnError: a leaf page that is gone, torn or rewritten
// fails every operation that needs it with a classified error — it is never
// a panic and never reads as "key absent" — while the rest of the tree keeps
// working.
func TestDamagedLeafIsAnError(t *testing.T) {
	pool := newTestPool()
	store := pool.Store()
	tr := New()
	const n = 20000
	fill(t, tr, seq(n))
	fs := fences(t, tr, pool)
	victim := fs[len(fs)/2]
	first := int(DecodeUint64(victim.First))
	good, err := store.ReadPage(victim.Page)
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.ReadPage(fs[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"bit flip":    append(append([]byte(nil), good[:100]...), append([]byte{good[100] ^ 1}, good[101:]...)...),
		"torn":        good[:len(good)/2],
		"empty":       {},
		"wrong leaf":  other,
		"wrong magic": append([]byte("XXXX"), good[4:]...),
	}
	for name, page := range damage {
		t.Run(name, func(t *testing.T) {
			if err := store.WritePage(victim.Page, page); err != nil {
				t.Fatal(err)
			}
			twin, err := Attach(pager.NewBufferPool(store, 64), n, fs)
			if err != nil {
				t.Fatal(err)
			}
			key := EncodeUint64(uint64(first + 3))
			for i := 0; i < 2; i++ { // the failure must not latch a half-loaded leaf
				if _, _, err := twin.Get(key); !errors.Is(err, dberr.ErrCorrupt) {
					t.Fatalf("Get on the damaged leaf: %v, want ErrCorrupt", err)
				}
			}
			if err := twin.Set(key, 1); !errors.Is(err, dberr.ErrCorrupt) {
				t.Errorf("Set: %v, want ErrCorrupt", err)
			}
			if _, err := twin.Delete(key); !errors.Is(err, dberr.ErrCorrupt) {
				t.Errorf("Delete: %v, want ErrCorrupt", err)
			}
			if err := twin.AscendRange(nil, nil, func([]byte, uint64) bool { return true }); !errors.Is(err, dberr.ErrCorrupt) {
				t.Errorf("full ascend: %v, want ErrCorrupt", err)
			}
			if err := twin.DescendRange(nil, nil, func([]byte, uint64) bool { return true }); !errors.Is(err, dberr.ErrCorrupt) {
				t.Errorf("full descend: %v, want ErrCorrupt", err)
			}
			if twin.Len() != n {
				t.Errorf("failed operations changed Len to %d", twin.Len())
			}
			// Ranges that end before the damaged leaf never touch it.
			if v, ok := get(t, twin, EncodeUint64(5)); !ok || v != 5 {
				t.Errorf("Get outside the damaged leaf = %d,%v", v, ok)
			}
			count := 0
			ascend(t, twin, nil, victim.First, func([]byte, uint64) bool { count++; return true })
			if count != first {
				t.Errorf("ascend below the damaged leaf saw %d keys, want %d", count, first)
			}
		})
	}
	if err := store.WritePage(victim.Page, good); err != nil {
		t.Fatal(err)
	}
	store.Free(fs[1].Page)
	twin, err := Attach(pager.NewBufferPool(store, 64), n, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := twin.Get(fs[1].First); !errors.Is(err, dberr.ErrCorrupt) {
		t.Errorf("Get on a freed leaf page: %v, want ErrCorrupt", err)
	}
}

func TestAttachRejectsBadFences(t *testing.T) {
	pool := newTestPool()
	for name, c := range map[string]struct {
		size   int
		fences []Fence
	}{
		"out of order": {2, []Fence{{[]byte("b"), 1}, {[]byte("a"), 2}}},
		"duplicate":    {2, []Fence{{[]byte("a"), 1}, {[]byte("a"), 2}}},
		"no page":      {1, []Fence{{[]byte("a"), 0}}},
		"no leaves":    {5, nil},
	} {
		if _, err := Attach(pool, c.size, c.fences); !errors.Is(err, dberr.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestAttachReadsNoLeaf: attaching costs no page read, a point lookup reads
// exactly the one leaf it lands in, and a short range stops at the fence of
// the next leaf instead of loading it.
func TestAttachReadsNoLeaf(t *testing.T) {
	pool := newTestPool()
	store := pool.Store()
	tr := New()
	fill(t, tr, seq(100000))
	fs := fences(t, tr, pool)
	before := store.Stats().Reads
	twin, err := Attach(pager.NewBufferPool(store, 64), tr.Len(), fs)
	if err != nil {
		t.Fatal(err)
	}
	reads := func() uint64 { return store.Stats().Reads - before }
	if reads() != 0 {
		t.Fatalf("Attach read %d pages", reads())
	}
	if v, ok := get(t, twin, EncodeUint64(77777)); !ok || v != 77777 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if reads() != 1 {
		t.Fatalf("point lookup read %d pages, want 1", reads())
	}
	// The last three keys of the second leaf: the range ends exactly where
	// the third leaf begins.
	hi := int(DecodeUint64(fs[2].First))
	count := 0
	ascend(t, twin, EncodeUint64(uint64(hi-3)), fs[2].First, func([]byte, uint64) bool { count++; return true })
	if count != 3 || reads() != 2 {
		t.Fatalf("range of 3 keys saw %d keys and brought reads to %d, want 3 and 2", count, reads())
	}
	count = 0
	descend(t, twin, EncodeUint64(uint64(hi)), EncodeUint64(uint64(hi+2)), func([]byte, uint64) bool { count++; return true })
	if count != 2 || reads() != 3 {
		t.Fatalf("descending range of 2 keys saw %d keys and brought reads to %d, want 2 and 3", count, reads())
	}
}

// TestConcurrentFirstTouch: readers sharing the tree (the engine's read
// lock) may all reach the unbuilt tree and the same unloaded leaves at once,
// and Leaves answers the same before and after the nodes are built. Run
// under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	pool := newTestPool()
	tr := New()
	const n = 30000
	fill(t, tr, rand.New(rand.NewSource(3)).Perm(n))
	fs := fences(t, tr, pool)
	twin, err := Attach(pager.NewBufferPool(pool.Store(), 64), n, fs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if got := twin.Leaves(); len(got) != len(fs) || !bytes.Equal(got[len(got)/2].First, fs[len(fs)/2].First) {
				t.Errorf("reader %d: Leaves gave %d fences, want %d", g, len(got), len(fs))
			}
			// Every goroutine walks the same keys in the same order, so
			// first touches collide.
			for i := 0; i < n; i += 37 {
				v, ok, err := twin.Get(EncodeUint64(uint64(i)))
				if err != nil || !ok || v != uint64(i) {
					t.Errorf("reader %d: Get(%d) = %d,%v,%v", g, i, v, ok, err)
					return
				}
			}
			count := 0
			scan := twin.AscendRange
			if g%2 == 1 {
				scan = twin.DescendRange
			}
			if err := scan(nil, nil, func([]byte, uint64) bool { count++; return true }); err != nil || count != n {
				t.Errorf("reader %d: scan saw %d keys, err %v", g, count, err)
			}
		}(g)
	}
	wg.Wait()
}
