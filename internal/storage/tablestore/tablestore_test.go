package tablestore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// newStores builds one store of each layout with the given column count over
// its own pager, returning stores keyed by layout name along with the page
// stores for block accounting.
func newStores(columns int) (map[string]Store, map[string]*pager.Store) {
	stores := make(map[string]Store)
	pagers := make(map[string]*pager.Store)
	{
		ps := pager.NewStore()
		stores["row"] = NewRowStore(pager.NewBufferPool(ps, 0), columns)
		pagers["row"] = ps
	}
	{
		ps := pager.NewStore()
		stores["column"] = NewColStore(pager.NewBufferPool(ps, 0), columns)
		pagers["column"] = ps
	}
	{
		ps := pager.NewStore()
		stores["hybrid"] = NewHybridStore(pager.NewBufferPool(ps, 0), columns, WithGroupSize(3))
		pagers["hybrid"] = ps
	}
	return stores, pagers
}

func row(vals ...any) []sheet.Value {
	out := make([]sheet.Value, len(vals))
	for i, v := range vals {
		out[i] = sheet.FromAny(v)
	}
	return out
}

func TestTupleCodecRoundTrip(t *testing.T) {
	ids := []RowID{1, 5, 9}
	rows := [][]sheet.Value{
		row(1.5, "alice", true),
		row(nil, "bob", false),
		row(-3, "", true),
	}
	page, _ := encodeTuplesV2(ids, rows, 3)
	gotIDs, gotRows, err := decodeTuples(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != 3 || gotIDs[1] != 5 {
		t.Fatalf("ids = %v", gotIDs)
	}
	for i := range rows {
		for c := range rows[i] {
			if gotRows[i][c].Kind != rows[i][c].Kind || gotRows[i][c].String() != rows[i][c].String() {
				t.Errorf("row %d col %d = %+v, want %+v", i, c, gotRows[i][c], rows[i][c])
			}
		}
	}
	// Empty buffer decodes to nothing.
	if ids, rows, err := decodeTuples(nil); err != nil || ids != nil || rows != nil {
		t.Error("empty decode wrong")
	}
	// Corrupt data errors.
	if _, _, err := decodeTuples([]byte{9, 9, 9}); err == nil {
		t.Error("corrupt decode should fail")
	}
}

func TestColumnCodecRoundTrip(t *testing.T) {
	vals := []sheet.Value{sheet.Number(1), sheet.String_("x"), sheet.Bool_(true), sheet.Empty(), sheet.ErrNA}
	page, _ := encodeColumnV2(vals)
	got, err := decodeColumn(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range vals {
		if got[i].Kind != vals[i].Kind || got[i].String() != vals[i].String() {
			t.Errorf("val %d = %+v", i, got[i])
		}
	}
	if vals, err := decodeColumn(nil); err != nil || vals != nil {
		t.Error("empty column decode wrong")
	}
}

func TestStoreConformanceCRUD(t *testing.T) {
	stores, _ := newStores(3)
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if s.Layout() != name {
				t.Errorf("Layout = %q", s.Layout())
			}
			if s.ColumnCount() != 3 || s.RowCount() != 0 {
				t.Fatal("initial counts wrong")
			}
			id1, err := s.Insert(row(1, "a", true))
			if err != nil {
				t.Fatal(err)
			}
			id2, err := s.Insert(row(2, "b", false))
			if err != nil {
				t.Fatal(err)
			}
			if id1 == id2 {
				t.Fatal("row ids must be unique")
			}
			got, err := s.Get(id1)
			if err != nil || got[0].Num != 1 || got[1].Str != "a" || got[2].Bool != true {
				t.Fatalf("Get(id1) = %v, %v", got, err)
			}
			// Width mismatch rejected.
			if _, err := s.Insert(row(1, 2)); err == nil {
				t.Error("short tuple should be rejected")
			}
			if err := s.Update(id1, row(1, 2)); err == nil {
				t.Error("short update should be rejected")
			}
			// Update.
			if err := s.Update(id2, row(20, "bb", true)); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get(id2)
			if got[0].Num != 20 || got[1].Str != "bb" {
				t.Error("Update content wrong")
			}
			// UpdateColumn.
			if err := s.UpdateColumn(id2, 1, sheet.String_("cc")); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get(id2)
			if got[1].Str != "cc" || got[0].Num != 20 {
				t.Error("UpdateColumn wrong")
			}
			if err := s.UpdateColumn(id2, 99, sheet.Number(1)); !errors.Is(err, ErrColumnRange) {
				t.Error("out-of-range column should fail")
			}
			// Delete.
			if err := s.Delete(id1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(id1); !errors.Is(err, ErrRowNotFound) {
				t.Error("deleted row should not be gettable")
			}
			if err := s.Delete(id1); !errors.Is(err, ErrRowNotFound) {
				t.Error("double delete should fail")
			}
			if err := s.Update(id1, row(0, "", false)); !errors.Is(err, ErrRowNotFound) {
				t.Error("update of deleted row should fail")
			}
			if s.RowCount() != 1 {
				t.Errorf("RowCount = %d", s.RowCount())
			}
			// Unknown ids.
			if _, err := s.Get(RowID(999)); !errors.Is(err, ErrRowNotFound) {
				t.Error("unknown id should fail")
			}
		})
	}
}

func TestStoreConformanceScan(t *testing.T) {
	stores, _ := newStores(2)
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			const n = 500
			for i := 0; i < n; i++ {
				if _, err := s.Insert(row(i, fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Delete every 10th row.
			deleted := 0
			for i := 0; i < n; i += 10 {
				if err := s.Delete(RowID(i + 1)); err != nil {
					t.Fatal(err)
				}
				deleted++
			}
			var seen []RowID
			prev := RowID(0)
			err := s.Scan(func(id RowID, r []sheet.Value) bool {
				if id <= prev {
					t.Fatalf("scan not in RowID order: %d after %d", id, prev)
				}
				prev = id
				if r[0].Num != float64(id-1) {
					t.Fatalf("row %d content wrong: %v", id, r[0])
				}
				seen = append(seen, id)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != n-deleted {
				t.Errorf("scan visited %d rows, want %d", len(seen), n-deleted)
			}
			// Early termination.
			count := 0
			_ = s.Scan(func(RowID, []sheet.Value) bool { count++; return count < 5 })
			if count != 5 {
				t.Errorf("early stop visited %d", count)
			}
		})
	}
}

func TestStoreConformanceSchemaChange(t *testing.T) {
	stores, _ := newStores(3)
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				_, _ = s.Insert(row(i, "x", i*2))
			}
			if err := s.AddColumn(sheet.String_("new")); err != nil {
				t.Fatal(err)
			}
			if s.ColumnCount() != 4 {
				t.Fatalf("ColumnCount = %d", s.ColumnCount())
			}
			got, err := s.Get(RowID(50))
			if err != nil || len(got) != 4 || got[3].Str != "new" {
				t.Fatalf("backfill wrong: %v %v", got, err)
			}
			// New inserts carry the new column.
			id, err := s.Insert(row(999, "y", 0, "fresh"))
			if err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get(id)
			if got[3].Str != "fresh" {
				t.Error("insert after AddColumn wrong")
			}
			// Update a value in the new column.
			if err := s.UpdateColumn(RowID(10), 3, sheet.Number(77)); err != nil {
				t.Fatal(err)
			}
			got, _ = s.Get(RowID(10))
			if got[3].Num != 77 {
				t.Error("update of new column wrong")
			}
			// Drop the middle column.
			if err := s.DropColumn(1); err != nil {
				t.Fatal(err)
			}
			if s.ColumnCount() != 3 {
				t.Fatalf("after drop ColumnCount = %d", s.ColumnCount())
			}
			got, _ = s.Get(RowID(10))
			if got[0].Num != 9 || got[1].Num != 18 || got[2].Num != 77 {
				t.Errorf("after drop row = %v", got)
			}
			// Scan still works and has the right width.
			_ = s.Scan(func(id RowID, r []sheet.Value) bool {
				if len(r) != 3 {
					t.Fatalf("scan row width = %d", len(r))
				}
				return id < 20
			})
			if err := s.DropColumn(99); !errors.Is(err, ErrColumnRange) {
				t.Error("drop out of range should fail")
			}
		})
	}
}

// TestStoresAgainstReference runs randomized operations on all layouts and a
// simple in-memory reference, verifying they always agree.
func TestStoresAgainstReference(t *testing.T) {
	stores, _ := newStores(2)
	type refRow struct {
		vals []sheet.Value
		live bool
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			ref := make(map[RowID]*refRow)
			width := 2
			rng := rand.New(rand.NewSource(5))
			var ids []RowID
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 4: // insert
					vals := make([]sheet.Value, width)
					for c := range vals {
						vals[c] = sheet.Number(float64(rng.Intn(1000)))
					}
					id, err := s.Insert(vals)
					if err != nil {
						t.Fatal(err)
					}
					ref[id] = &refRow{vals: cloneRow(vals), live: true}
					ids = append(ids, id)
				case r < 6 && len(ids) > 0: // update
					id := ids[rng.Intn(len(ids))]
					vals := make([]sheet.Value, width)
					for c := range vals {
						vals[c] = sheet.Number(float64(rng.Intn(1000)))
					}
					err := s.Update(id, vals)
					if ref[id].live {
						if err != nil {
							t.Fatalf("op %d: update live row failed: %v", op, err)
						}
						ref[id].vals = cloneRow(vals)
					} else if err == nil {
						t.Fatalf("op %d: update of deleted row succeeded", op)
					}
				case r < 7 && len(ids) > 0: // delete
					id := ids[rng.Intn(len(ids))]
					err := s.Delete(id)
					if ref[id].live != (err == nil) {
						t.Fatalf("op %d: delete mismatch", op)
					}
					ref[id].live = false
				case r < 9 && len(ids) > 0: // point read
					id := ids[rng.Intn(len(ids))]
					got, err := s.Get(id)
					if ref[id].live {
						if err != nil {
							t.Fatalf("op %d: get failed: %v", op, err)
						}
						for c := range got {
							if got[c].Num != ref[id].vals[c].Num {
								t.Fatalf("op %d: content mismatch", op)
							}
						}
					} else if err == nil {
						t.Fatalf("op %d: get of deleted row succeeded", op)
					}
				case len(ids) > 0: // occasionally add a column
					if width < 6 && rng.Intn(20) == 0 {
						def := sheet.Number(float64(width) * 100)
						if err := s.AddColumn(def); err != nil {
							t.Fatal(err)
						}
						for _, rr := range ref {
							rr.vals = append(rr.vals, def)
						}
						width++
					}
				}
			}
			// Final scan agrees with reference.
			live := 0
			for _, rr := range ref {
				if rr.live {
					live++
				}
			}
			seen := 0
			_ = s.Scan(func(id RowID, r []sheet.Value) bool {
				rr, ok := ref[id]
				if !ok || !rr.live {
					t.Fatalf("scan returned unexpected row %d", id)
				}
				for c := range r {
					if r[c].Num != rr.vals[c].Num {
						t.Fatalf("scan row %d col %d mismatch", id, c)
					}
				}
				seen++
				return true
			})
			if seen != live {
				t.Fatalf("scan saw %d rows, want %d", seen, live)
			}
			if s.RowCount() != live {
				t.Fatalf("RowCount = %d, want %d", s.RowCount(), live)
			}
		})
	}
}

// TestSchemaChangeBlockCosts verifies the paper's central storage claim as a
// *shape*: adding a column to a populated table touches O(table) blocks in a
// row store but only O(new column) blocks in the hybrid and column layouts,
// while a point update touches fewer blocks in hybrid than in a pure column
// store.
func TestSchemaChangeBlockCosts(t *testing.T) {
	const rows = 5000
	const cols = 12
	stores, pagers := newStores(cols)
	vals := make([]sheet.Value, cols)
	for name, s := range stores {
		for i := 0; i < rows; i++ {
			for c := range vals {
				vals[c] = sheet.Number(float64(i*cols + c))
			}
			if _, err := s.Insert(vals); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
		}
		pagers[name].ResetStats()
	}
	// Schema change cost.
	addCost := map[string]uint64{}
	for name, s := range stores {
		if err := s.AddColumn(sheet.Number(0)); err != nil {
			t.Fatal(err)
		}
		addCost[name] = pagers[name].Stats().Writes
		pagers[name].ResetStats()
	}
	if addCost["row"] < 4*addCost["hybrid"] {
		t.Errorf("row-store schema change (%d writes) should cost much more than hybrid (%d writes)",
			addCost["row"], addCost["hybrid"])
	}
	if addCost["hybrid"] > 2*addCost["column"] {
		t.Errorf("hybrid schema change (%d writes) should be close to column store (%d writes)",
			addCost["hybrid"], addCost["column"])
	}
	// Point full-row update cost.
	updCost := map[string]uint64{}
	for name, s := range stores {
		pagers[name].ResetStats()
		wide := make([]sheet.Value, cols+1)
		for c := range wide {
			wide[c] = sheet.Number(1)
		}
		if err := s.Update(RowID(rows/2), wide); err != nil {
			t.Fatal(err)
		}
		updCost[name] = pagers[name].Stats().BlocksTouched()
	}
	if updCost["column"] < 2*updCost["hybrid"] {
		t.Errorf("column-store row update (%d blocks) should cost much more than hybrid (%d blocks)",
			updCost["column"], updCost["hybrid"])
	}
	if updCost["row"] > updCost["hybrid"] {
		t.Errorf("row-store row update (%d blocks) should not cost more than hybrid (%d blocks)",
			updCost["row"], updCost["hybrid"])
	}
}

func TestHybridGroupSizeAblation(t *testing.T) {
	// Group size 1 must behave like a column store for updates (one block
	// per column) and like it for schema changes; a huge group size must
	// behave like a row store for schema changes.
	ps1 := pager.NewStore()
	s1 := NewHybridStore(pager.NewBufferPool(ps1, 0), 8, WithGroupSize(1))
	psAll := pager.NewStore()
	sAll := NewHybridStore(pager.NewBufferPool(psAll, 0), 8, WithGroupSize(100))
	if s1.GroupCount() != 8 || sAll.GroupCount() != 1 {
		t.Fatalf("GroupCounts = %d, %d", s1.GroupCount(), sAll.GroupCount())
	}
	vals := make([]sheet.Value, 8)
	for i := range vals {
		vals[i] = sheet.Number(float64(i))
	}
	for i := 0; i < 1000; i++ {
		_, _ = s1.Insert(vals)
		_, _ = sAll.Insert(vals)
	}
	ps1.ResetStats()
	psAll.ResetStats()
	_ = s1.AddColumn(sheet.Empty())
	_ = sAll.AddColumn(sheet.Empty())
	// Both create a fresh group, so schema change cost is similar; but a
	// full-row update differs sharply.
	ps1.ResetStats()
	psAll.ResetStats()
	wide := append(cloneRow(vals), sheet.Empty())
	_ = s1.Update(500, wide)
	_ = sAll.Update(500, wide)
	if ps1.Stats().BlocksTouched() <= psAll.Stats().BlocksTouched() {
		t.Errorf("group-size-1 update (%d blocks) should cost more than single-group update (%d blocks)",
			ps1.Stats().BlocksTouched(), psAll.Stats().BlocksTouched())
	}
}

func TestHybridDropColumnWithinGroup(t *testing.T) {
	ps := pager.NewStore()
	s := NewHybridStore(pager.NewBufferPool(ps, 0), 4, WithGroupSize(4))
	for i := 0; i < 100; i++ {
		_, _ = s.Insert(row(i, i*2, i*3, i*4))
	}
	if err := s.DropColumn(1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Num != 49 || got[1].Num != 147 || got[2].Num != 196 {
		t.Errorf("after in-group drop row = %v", got)
	}
	// Dropping the only column of its group frees it.
	if err := s.AddColumn(sheet.Number(9)); err != nil {
		t.Fatal(err)
	}
	newCol := s.ColumnCount() - 1
	if err := s.DropColumn(newCol); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(50)
	if len(got) != 3 {
		t.Errorf("after dropping new column width = %d", len(got))
	}
}

func TestRowStorePageGrowth(t *testing.T) {
	ps := pager.NewStore()
	s := NewRowStore(pager.NewBufferPool(ps, 0), 1)
	for i := 0; i < rowsPerPage*2+1; i++ {
		_, _ = s.Insert(row(i))
	}
	if s.PageCount() != 3 {
		t.Errorf("PageCount = %d, want 3", s.PageCount())
	}
}

func TestColStorePageAccounting(t *testing.T) {
	ps := pager.NewStore()
	s := NewColStore(pager.NewBufferPool(ps, 0), 3)
	for i := 0; i < 100; i++ {
		_, _ = s.Insert(row(i, i, i))
	}
	if s.PageCount() != 3 {
		t.Errorf("PageCount = %d, want 3 (one page per column)", s.PageCount())
	}
	if err := s.DropColumn(0); err != nil {
		t.Fatal(err)
	}
	if s.PageCount() != 2 || s.ColumnCount() != 2 {
		t.Error("DropColumn should free the column's pages")
	}
	got, _ := s.Get(10)
	if len(got) != 2 || got[0].Num != 9 {
		t.Errorf("after drop row = %v", got)
	}
}
