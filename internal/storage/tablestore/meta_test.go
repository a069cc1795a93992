package tablestore

import (
	"fmt"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// TestMetaAttachRoundTrip: for every group shape, MarshalMeta +
// OpenHybridStore over a fresh pool on the same backend must see the exact same rows — including
// tombstones, schema evolution and post-attach inserts continuing the RowID
// sequence.
func TestMetaAttachRoundTrip(t *testing.T) {
	for _, sh := range Shapes {
		t.Run(sh.Name, func(t *testing.T) {
			backend := pager.NewStore()
			pool := pager.NewBufferPool(backend, 64)
			s := NewHybridStore(pool, 3, WithGroupSize(sh.GroupSize))
			var kept []RowID
			for i := 0; i < 200; i++ {
				id, err := s.Insert([]sheet.Value{
					sheet.Number(float64(i)),
					sheet.String_(fmt.Sprintf("r%d", i)),
					sheet.Bool_(i%2 == 0),
				})
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, id)
			}
			// Tombstones and schema evolution must survive the meta.
			if err := s.Delete(kept[10]); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(kept[190]); err != nil {
				t.Fatal(err)
			}
			if err := s.AddColumn(sheet.Number(7)); err != nil {
				t.Fatal(err)
			}
			if err := s.DropColumn(1); err != nil {
				t.Fatal(err)
			}
			want := map[RowID][]sheet.Value{}
			if err := s.Scan(func(id RowID, row []sheet.Value) bool {
				want[id] = row
				return true
			}); err != nil {
				t.Fatal(err)
			}

			// Everything must be on the backend before a fresh pool attaches.
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			meta := s.MarshalMeta()

			pool2 := pager.NewBufferPool(backend, 64)
			re, err := OpenHybridStore(pool2, meta)
			if err != nil {
				t.Fatal(err)
			}
			if re.RowCount() != s.RowCount() || re.ColumnCount() != s.ColumnCount() {
				t.Fatalf("attached store: %d rows %d cols, want %d/%d",
					re.RowCount(), re.ColumnCount(), s.RowCount(), s.ColumnCount())
			}
			got := map[RowID][]sheet.Value{}
			if err := re.Scan(func(id RowID, row []sheet.Value) bool {
				got[id] = row
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("attached scan saw %d rows, want %d", len(got), len(want))
			}
			for id, w := range want {
				g, ok := got[id]
				if !ok {
					t.Fatalf("row %d missing after attach", id)
				}
				for c := range w {
					if w[c].Kind != g[c].Kind || w[c].String() != g[c].String() {
						t.Fatalf("row %d col %d: %q vs %q", id, c, w[c].String(), g[c].String())
					}
				}
			}
			// Inserts continue the RowID sequence, never reusing an id.
			id, err := re.Insert(make([]sheet.Value, re.ColumnCount()))
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := want[id]; dup {
				t.Fatalf("post-attach insert reused RowID %d", id)
			}
		})
	}
}

// TestMetaRejectsCorrupt: a bit-flipped or truncated meta blob must fail the
// attach with an error, not build a store over garbage.
func TestMetaRejectsCorrupt(t *testing.T) {
	backend := pager.NewStore()
	pool := pager.NewBufferPool(backend, 16)
	s := NewHybridStore(pool, 4)
	for i := 0; i < 50; i++ {
		if _, err := s.Insert(make([]sheet.Value, 4)); err != nil {
			t.Fatal(err)
		}
	}
	meta := s.MarshalMeta()
	if _, err := OpenHybridStore(pool, meta[:len(meta)/2]); err == nil {
		t.Error("truncated meta attached without error")
	}
}

// TestDecodedCacheInvalidatesOnPageReuse is the regression test for the
// stale-decode bug: a page freed by one column's group and recycled by a later
// AddColumn (which writes through pool.Put, not the store's writePage) used
// to keep serving the old column's decode. Version-validated entries must
// re-decode.
func TestDecodedCacheInvalidatesOnPageReuse(t *testing.T) {
	backend := pager.NewStore()
	pool := pager.NewBufferPool(backend, 64)
	s := NewHybridStore(pool, 2, WithGroupSize(1))
	for i := 0; i < 600; i++ { // > valuesPerPage, so real pages exist
		if _, err := s.Insert([]sheet.Value{sheet.Number(float64(i)), sheet.String_("old")}); err != nil {
			t.Fatal(err)
		}
	}
	// Populate the decoded cache for column 1.
	if err := scanCols(s, []int{1}, func(RowID, []sheet.Value) bool { return true }); err != nil {
		t.Fatal(err)
	}
	// Free column 1's pages, then allocate fresh pages — the in-memory
	// backend recycles nothing, but FileStore does; simulate by dropping
	// and re-adding so the new column's backfill goes through pool.Put.
	if err := s.DropColumn(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddColumn(sheet.String_("new")); err != nil {
		t.Fatal(err)
	}
	seen := ""
	if err := scanCols(s, []int{1}, func(id RowID, row []sheet.Value) bool {
		seen = row[0].String()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if seen != "new" {
		t.Fatalf("scan after column churn saw %q, want the backfilled default", seen)
	}

	// The FileStore variant actually recycles page ids, which is the real
	// reuse hazard: run the same churn over a file backend.
	fs, err := pager.OpenFileStore(t.TempDir() + "/heap.dsp")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fpool := pager.NewBufferPool(fs, 64)
	s2 := NewHybridStore(fpool, 2, WithGroupSize(1))
	for i := 0; i < 600; i++ {
		if _, err := s2.Insert([]sheet.Value{sheet.Number(float64(i)), sheet.String_("old")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := scanCols(s2, []int{1}, func(RowID, []sheet.Value) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s2.DropColumn(1); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddColumn(sheet.String_("new")); err != nil {
		t.Fatal(err)
	}
	if err := scanCols(s2, []int{1}, func(id RowID, row []sheet.Value) bool {
		if row[0].String() != "new" {
			t.Fatalf("row %d served stale decode %q after page reuse", id, row[0].String())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPageChecksumDetectsCorruption: a bit flip inside a sealed tuple page
// surfaces as ErrPageChecksum, never as silently wrong values.
func TestPageChecksumDetectsCorruption(t *testing.T) {
	ids := []RowID{1, 2}
	rows := [][]sheet.Value{{sheet.Number(1)}, {sheet.Number(2)}}
	page, _ := encodeTuplesV2(ids, rows, 1)
	for pos := 0; pos < len(page); pos++ {
		corrupt := append([]byte(nil), page...)
		corrupt[pos] ^= 0x10
		gotIDs, gotRows, err := decodeTuples(corrupt, 1)
		if err == nil {
			// Extremely unlikely CRC collision would be a test bug; any
			// successful decode must at least equal the original.
			if len(gotIDs) != 2 || gotRows[0][0].Num != 1 {
				t.Fatalf("flip@%d decoded silently wrong data", pos)
			}
		}
	}
}
