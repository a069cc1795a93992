package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Error-checking shorthands: an in-memory tree never fails, and a paged one
// only on a damaged page, which the tests that damage pages check themselves.

func set(t testing.TB, tr *Tree, key []byte, val uint64) {
	t.Helper()
	if err := tr.Set(key, val); err != nil {
		t.Fatalf("Set(%x): %v", key, err)
	}
}

func get(t testing.TB, tr *Tree, key []byte) (uint64, bool) {
	t.Helper()
	v, ok, err := tr.Get(key)
	if err != nil {
		t.Fatalf("Get(%x): %v", key, err)
	}
	return v, ok
}

func del(t testing.TB, tr *Tree, key []byte) bool {
	t.Helper()
	ok, err := tr.Delete(key)
	if err != nil {
		t.Fatalf("Delete(%x): %v", key, err)
	}
	return ok
}

func ascend(t testing.TB, tr *Tree, lo, hi []byte, fn func(k []byte, v uint64) bool) {
	t.Helper()
	if err := tr.AscendRange(lo, hi, fn); err != nil {
		t.Fatalf("AscendRange: %v", err)
	}
}

func descend(t testing.TB, tr *Tree, lo, hi []byte, fn func(k []byte, v uint64) bool) {
	t.Helper()
	if err := tr.DescendRange(lo, hi, fn); err != nil {
		t.Fatalf("DescendRange: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("new tree should be empty")
	}
	if _, ok := get(t, tr, []byte("x")); ok {
		t.Fatal("Get on empty tree should miss")
	}
	if del(t, tr, []byte("x")) {
		t.Fatal("Delete on empty tree should return false")
	}
	count := 0
	ascend(t, tr, nil, nil, func([]byte, uint64) bool { count++; return true })
	if count != 0 {
		t.Fatal("All on empty tree should not call fn")
	}
}

func TestSetGetReplace(t *testing.T) {
	tr := New()
	set(t, tr, []byte("a"), 1)
	set(t, tr, []byte("b"), 2)
	set(t, tr, []byte("a"), 10)
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2 (replace must not grow)", tr.Len())
	}
	if v, ok := get(t, tr, []byte("a")); !ok || v != 10 {
		t.Errorf("Get(a) = %d,%v", v, ok)
	}
	if v, ok := get(t, tr, []byte("b")); !ok || v != 2 {
		t.Errorf("Get(b) = %d,%v", v, ok)
	}
}

func TestKeyIsolation(t *testing.T) {
	tr := New()
	k := []byte("key")
	set(t, tr, k, 1)
	k[0] = 'X' // mutating the caller's slice must not corrupt the tree
	if _, ok := get(t, tr, []byte("key")); !ok {
		t.Error("tree should have copied the key")
	}
}

func TestLargeInsertAndScanOrder(t *testing.T) {
	tr := New()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		set(t, tr, EncodeUint64(uint64(i)), uint64(i*2))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	// Every key retrievable.
	for i := 0; i < n; i += 97 {
		v, ok := get(t, tr, EncodeUint64(uint64(i)))
		if !ok || v != uint64(i*2) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Full scan yields sorted order.
	prev := []byte(nil)
	count := 0
	ascend(t, tr, nil, nil, func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order at %d", count)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		set(t, tr, EncodeUint64(uint64(i)), uint64(i))
	}
	var got []uint64
	ascend(t, tr, EncodeUint64(10), EncodeUint64(20), func(_ []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("Scan[10,20) = %v", got)
	}
	// Early stop.
	n := 0
	ascend(t, tr, nil, nil, func([]byte, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Open-ended lower bound.
	got = got[:0]
	ascend(t, tr, nil, EncodeUint64(3), func(_ []byte, v uint64) bool { got = append(got, v); return true })
	if len(got) != 3 {
		t.Errorf("Scan[nil,3) = %v", got)
	}
	// Open-ended upper bound.
	got = got[:0]
	ascend(t, tr, EncodeUint64(97), nil, func(_ []byte, v uint64) bool { got = append(got, v); return true })
	if len(got) != 3 {
		t.Errorf("Scan[97,nil) = %v", got)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		set(t, tr, EncodeUint64(uint64(i)), uint64(i))
	}
	for i := 0; i < n; i += 2 {
		if !del(t, tr, EncodeUint64(uint64(i))) {
			t.Fatalf("Delete(%d) returned false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := get(t, tr, EncodeUint64(uint64(i)))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence wrong after delete", i)
		}
	}
	if del(t, tr, EncodeUint64(0)) {
		t.Error("double delete should return false")
	}
}

// TestTreeAgainstMapProperty: randomised operations mirrored against a Go
// map must always agree — on a tree that stays in memory, and on one that
// is flushed to pages and swapped for a lazily attached twin every 2500
// operations, so inserts, deletes and scans land on unloaded leaves, on
// leaves dirtied again after a flush, and on leaves emptied and dropped.
func TestTreeAgainstMapProperty(t *testing.T) {
	t.Run("memory", func(t *testing.T) { treeAgainstMap(t, nil) })
	t.Run("paged", func(t *testing.T) { treeAgainstMap(t, newTestPool()) })
}

func treeAgainstMap(t *testing.T, pool *pager.BufferPool) {
	tr := New()
	ref := make(map[string]uint64)
	rng := rand.New(rand.NewSource(42))
	// 48-byte keys: some 70 to a leaf, so 3000 keys spread over dozens.
	pad := bytes.Repeat([]byte{'p'}, 40)
	keyOf := func(i int) []byte { return Composite(EncodeUint64(uint64(i)), pad) }
	for i := 0; i < 20000; i++ {
		if pool != nil && i%2500 == 2499 {
			tr = reattach(t, tr, pool)
		}
		key := keyOf(rng.Intn(3000))
		op := rng.Intn(3)
		// Every 5000 operations a sweep deletes 1000 consecutive keys,
		// emptying whole leaves.
		if sweep := i%5000 - 4000; sweep >= 0 {
			key, op = keyOf(1000+sweep), 2
		}
		switch op {
		case 0, 1:
			v := uint64(1 + rng.Intn(1e6))
			set(t, tr, key, v)
			ref[string(key)] = v
		case 2:
			got := del(t, tr, key)
			_, want := ref[string(key)]
			if got != want {
				t.Fatalf("Delete mismatch at op %d", i)
			}
			delete(ref, string(key))
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, map = %d", tr.Len(), len(ref))
	}
	for k, want := range ref {
		got, ok := get(t, tr, []byte(k))
		if !ok || got != want {
			t.Fatalf("Get(%x) = %d,%v want %d", k, got, ok, want)
		}
	}
	// Scan order matches sorted map keys.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	ascend(t, tr, nil, nil, func(k []byte, v uint64) bool {
		if string(k) != keys[i] || v != ref[keys[i]] {
			t.Fatalf("scan mismatch at %d", i)
		}
		i++
		return true
	})
}

func TestEncodeUint64Order(t *testing.T) {
	f := func(a, b uint64) bool {
		cmp := bytes.Compare(EncodeUint64(a), EncodeUint64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeInt64Order(t *testing.T) {
	f := func(a, b int64) bool {
		cmp := bytes.Compare(EncodeInt64(a), EncodeInt64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DecodeInt64(EncodeInt64(-12345)) != -12345 {
		t.Error("int64 round trip failed")
	}
}

func TestEncodeFloat64Order(t *testing.T) {
	vals := []float64{-1e300, -42.5, -1, -0.001, 0, 0.001, 1, 42.5, 1e300}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			cmp := bytes.Compare(EncodeFloat64(vals[i]), EncodeFloat64(vals[j]))
			want := 0
			if vals[i] < vals[j] {
				want = -1
			} else if vals[i] > vals[j] {
				want = 1
			}
			if (cmp < 0) != (want < 0) || (cmp > 0) != (want > 0) {
				t.Errorf("order of %v vs %v wrong", vals[i], vals[j])
			}
		}
	}
	f := func(x float64) bool { return DecodeFloat64(EncodeFloat64(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeStringOrderAndRoundTrip(t *testing.T) {
	f := func(a, b string) bool {
		cmp := bytes.Compare(EncodeString(a), EncodeString(b))
		want := bytes.Compare([]byte(a), []byte(b))
		// The encoding must preserve order exactly for strings without
		// embedded NULs; with NULs it still round-trips (checked below).
		if !bytes.ContainsRune([]byte(a), 0) && !bytes.ContainsRune([]byte(b), 0) {
			return (cmp < 0) == (want < 0) && (cmp > 0) == (want > 0)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	rt := func(s string) bool {
		dec, n := DecodeString(EncodeString(s))
		return dec == s && n == len(EncodeString(s))
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
	// Embedded NUL round trip.
	s := "a\x00b"
	dec, _ := DecodeString(EncodeString(s))
	if dec != s {
		t.Errorf("NUL round trip = %q", dec)
	}
}

func TestCompositeKeys(t *testing.T) {
	tr := New()
	// Composite (group, seq) keys must scan grouped and ordered.
	for g := 0; g < 5; g++ {
		for s := 0; s < 10; s++ {
			key := Composite(EncodeString(fmt.Sprintf("g%d", g)), EncodeUint64(uint64(s)))
			set(t, tr, key, uint64(g*100+s))
		}
	}
	lo := Composite(EncodeString("g2"), EncodeUint64(0))
	hi := Composite(EncodeString("g2"), EncodeUint64(1<<62))
	var got []uint64
	ascend(t, tr, lo, hi, func(_ []byte, v uint64) bool { got = append(got, v); return true })
	if len(got) != 10 || got[0] != 200 || got[9] != 209 {
		t.Errorf("composite scan = %v", got)
	}
}

func TestAscendDescendRange(t *testing.T) {
	tr := New()
	const n = 1000
	for i := 0; i < n; i++ {
		// Shuffled insertion order.
		k := (i*7919 + 13) % n
		set(t, tr, EncodeUint64(uint64(k)), uint64(k))
	}
	t.Run("memory", func(t *testing.T) { ascendDescendRange(t, func() *Tree { return tr }, n) })
	// Every check starts from a freshly attached tree, so each range is the
	// first to touch the leaves it needs.
	pool := newTestPool()
	t.Run("paged", func(t *testing.T) { ascendDescendRange(t, func() *Tree { return reattach(t, tr, pool) }, n) })
}

func ascendDescendRange(t *testing.T, tree func() *Tree, n int) {
	check := func(lo, hi int, wantFirst, wantLast uint64, wantLen int) {
		t.Helper()
		var loK, hiK []byte
		if lo >= 0 {
			loK = EncodeUint64(uint64(lo))
		}
		if hi >= 0 {
			hiK = EncodeUint64(uint64(hi))
		}
		var asc []uint64
		ascend(t, tree(), loK, hiK, func(_ []byte, v uint64) bool { asc = append(asc, v); return true })
		var desc []uint64
		descend(t, tree(), loK, hiK, func(_ []byte, v uint64) bool { desc = append(desc, v); return true })
		if len(asc) != wantLen || len(desc) != wantLen {
			t.Fatalf("[%d,%d): len asc=%d desc=%d want %d", lo, hi, len(asc), len(desc), wantLen)
		}
		if wantLen == 0 {
			return
		}
		if asc[0] != wantFirst || asc[len(asc)-1] != wantLast {
			t.Fatalf("[%d,%d): asc %d..%d want %d..%d", lo, hi, asc[0], asc[len(asc)-1], wantFirst, wantLast)
		}
		for i := range desc {
			if desc[i] != asc[len(asc)-1-i] {
				t.Fatalf("[%d,%d): descend is not the reverse of ascend at %d", lo, hi, i)
			}
		}
	}
	check(100, 200, 100, 199, 100)
	check(-1, 50, 0, 49, 50)
	check(950, -1, 950, 999, 50)
	check(-1, -1, 0, 999, n)
	check(500, 500, 0, 0, 0)
	check(3, 4, 3, 3, 1)

	// Early termination.
	var got []uint64
	descend(t, tree(), nil, nil, func(_ []byte, v uint64) bool {
		got = append(got, v)
		return len(got) < 5
	})
	if len(got) != 5 || got[0] != 999 || got[4] != 995 {
		t.Fatalf("descend early exit = %v", got)
	}
}

func TestPrefixEnd(t *testing.T) {
	if got := PrefixEnd([]byte{1, 2, 3}); string(got) != string([]byte{1, 2, 4}) {
		t.Fatalf("PrefixEnd(1,2,3) = %v", got)
	}
	if got := PrefixEnd([]byte{1, 0xFF}); string(got) != string([]byte{2}) {
		t.Fatalf("PrefixEnd(1,FF) = %v", got)
	}
	if got := PrefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Fatalf("PrefixEnd(FF,FF) = %v, want nil", got)
	}
	// [p, PrefixEnd(p)) must capture exactly the keys extending p.
	tr := New()
	set(t, tr, []byte{1, 2}, 1)
	set(t, tr, []byte{1, 2, 0}, 2)
	set(t, tr, []byte{1, 2, 0xFF}, 3)
	set(t, tr, []byte{1, 3}, 4)
	set(t, tr, []byte{1, 1, 9}, 5)
	var got []uint64
	p := []byte{1, 2}
	ascend(t, tr, p, PrefixEnd(p), func(_ []byte, v uint64) bool { got = append(got, v); return true })
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("prefix range = %v", got)
	}
}
