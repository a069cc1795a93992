package tablestore

import (
	"errors"
	"fmt"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

func newScanStores() map[string]Store {
	out := make(map[string]Store)
	for _, sh := range Shapes {
		out[sh.Name] = NewHybridStore(pager.NewBufferPool(pager.NewStore(), 64), 4, WithGroupSize(sh.GroupSize))
	}
	return out
}

// scanCols drives the one read contract the way the executor's serial
// puller does: pin a snapshot, take its (single, unpruned) partition, run
// ScanColsRange.
func scanCols(s Store, cols []int, fn func(id RowID, row []sheet.Value) bool) error {
	snap := s.Snapshot()
	defer snap.Release()
	parts, _, _ := snap.Partitions(1, cols, nil)
	for _, p := range parts {
		if err := snap.ScanColsRange(p, cols, fn); err != nil {
			return err
		}
	}
	return nil
}

// stableCols reports ScanColsStable for a snapshot of the store's current
// schema.
func stableCols(s Store, cols []int) bool {
	snap := s.Snapshot()
	defer snap.Release()
	return snap.ScanColsStable(cols)
}

func fillStore(t *testing.T, s Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		row := []sheet.Value{
			sheet.Number(float64(i)),
			sheet.String_(fmt.Sprintf("s%d", i)),
			sheet.Number(float64(i * 10)),
			sheet.Bool_(i%2 == 0),
		}
		if _, err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanColsSubsets(t *testing.T) {
	const n = 1500 // spans several pages in every shape
	for name, s := range newScanStores() {
		t.Run(name, func(t *testing.T) {
			fillStore(t, s, n)
			// Delete a few rows so tombstones are exercised.
			for _, id := range []RowID{1, 700, RowID(n)} {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			for _, cols := range [][]int{nil, {0}, {2, 0}, {3, 1, 2}, {0, 1, 2, 3}} {
				seen := 0
				err := scanCols(s, cols, func(id RowID, row []sheet.Value) bool {
					seen++
					i := int(id - 1)
					want := []sheet.Value{
						sheet.Number(float64(i)),
						sheet.String_(fmt.Sprintf("s%d", i)),
						sheet.Number(float64(i * 10)),
						sheet.Bool_(i%2 == 0),
					}
					cs := cols
					if cs == nil {
						cs = []int{0, 1, 2, 3}
					}
					if len(row) != len(cs) {
						t.Fatalf("cols %v: row width %d", cols, len(row))
					}
					for j, c := range cs {
						if !row[j].Equal(want[c]) {
							t.Fatalf("cols %v row %d: col %d = %v, want %v", cols, id, c, row[j], want[c])
						}
					}
					return true
				})
				if err != nil {
					t.Fatalf("cols %v: %v", cols, err)
				}
				if seen != n-3 {
					t.Fatalf("cols %v: saw %d rows, want %d", cols, seen, n-3)
				}
			}
			// Early stop.
			count := 0
			_ = scanCols(s, []int{0}, func(RowID, []sheet.Value) bool {
				count++
				return count < 10
			})
			if count != 10 {
				t.Fatalf("early stop: %d", count)
			}
			// Out-of-range column.
			if err := scanCols(s, []int{4}, func(RowID, []sheet.Value) bool { return true }); !errors.Is(err, ErrColumnRange) {
				t.Fatalf("out-of-range col: %v", err)
			}
		})
	}
}

// TestScanColsStableContract verifies that rows from a stable scan remain
// valid after the scan, and that stores only claim stability when they
// deliver it.
func TestScanColsStableContract(t *testing.T) {
	for name, s := range newScanStores() {
		t.Run(name, func(t *testing.T) {
			fillStore(t, s, 600)
			for _, cols := range [][]int{nil, {0}, {0, 1}, {2, 3}} {
				if !stableCols(s, cols) {
					continue
				}
				var rows [][]sheet.Value
				var ids []RowID
				if err := scanCols(s, cols, func(id RowID, row []sheet.Value) bool {
					rows = append(rows, row)
					ids = append(ids, id)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				cs := cols
				if cs == nil {
					cs = []int{0, 1, 2, 3}
				}
				for k, id := range ids {
					i := int(id - 1)
					if !rows[k][0].Equal(sheet.Number(float64(i))) && cs[0] == 0 {
						t.Fatalf("stable cols %v: retained row %d corrupted: %v", cols, id, rows[k])
					}
				}
			}
		})
	}
	// Hybrid with aligned single group must be stable; spanning groups not.
	pool := pager.NewBufferPool(pager.NewStore(), 64)
	h := NewHybridStore(pool, 4, WithGroupSize(2))
	if !stableCols(h, []int{0, 1}) {
		t.Fatal("aligned first group should be stable")
	}
	if stableCols(h, []int{1, 2}) {
		t.Fatal("group-spanning scan cannot be stable")
	}
	if stableCols(h, []int{1, 0}) {
		t.Fatal("reordered scan cannot be stable")
	}
}

// TestScanSeesWrites verifies the decoded-page cache is invalidated by every
// mutation path: scans after updates, deletes and schema changes observe the
// new state.
func TestScanSeesWrites(t *testing.T) {
	for name, s := range newScanStores() {
		t.Run(name, func(t *testing.T) {
			fillStore(t, s, 300)
			// Warm the decoded cache.
			_ = scanCols(s, nil, func(RowID, []sheet.Value) bool { return true })

			if err := s.Update(5, []sheet.Value{sheet.Number(-5), sheet.String_("upd"), sheet.Number(0), sheet.Bool_(false)}); err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateColumn(6, 2, sheet.Number(-66)); err != nil {
				t.Fatal(err)
			}
			got := map[RowID][]sheet.Value{}
			_ = scanCols(s, nil, func(id RowID, row []sheet.Value) bool {
				if id == 5 || id == 6 {
					got[id] = append([]sheet.Value(nil), row...)
				}
				return true
			})
			if !got[5][1].Equal(sheet.String_("upd")) {
				t.Fatalf("update invisible to scan: %v", got[5])
			}
			if !got[6][2].Equal(sheet.Number(-66)) {
				t.Fatalf("column update invisible to scan: %v", got[6])
			}

			if err := s.AddColumn(sheet.Number(7)); err != nil {
				t.Fatal(err)
			}
			var width int
			_ = scanCols(s, nil, func(_ RowID, row []sheet.Value) bool {
				width = len(row)
				if !row[4].Equal(sheet.Number(7)) {
					t.Fatalf("backfill invisible: %v", row)
				}
				return false
			})
			if width != 5 {
				t.Fatalf("width after AddColumn = %d", width)
			}

			if err := s.DropColumn(1); err != nil {
				t.Fatal(err)
			}
			_ = scanCols(s, nil, func(id RowID, row []sheet.Value) bool {
				if len(row) != 4 {
					t.Fatalf("width after DropColumn = %d", len(row))
				}
				if id == 7 && !row[1].Equal(sheet.Number(60)) {
					t.Fatalf("post-drop row mismatch: %v", row)
				}
				return true
			})
			_ = name
		})
	}
}

// TestGetCols checks the point read against Get in every shape: the subset
// values must match the full tuple, missing rows must error, and deleted
// rows must be invisible.
func TestGetCols(t *testing.T) {
	for _, sh := range Shapes {
		t.Run(sh.Name, func(t *testing.T) {
			s := NewHybridStore(pager.NewBufferPool(pager.NewStore(), 64), 5, WithGroupSize(sh.GroupSize))
			const n = 700 // spans multiple pages in every shape
			for i := 0; i < n; i++ {
				row := make([]sheet.Value, 5)
				for c := range row {
					row[c] = sheet.Number(float64(i*10 + c))
				}
				if _, err := s.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []RowID{1, 63, 64, 65, 512, 700} {
				full, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				for _, cols := range [][]int{nil, {0}, {4, 1}, {2, 2}, {}} {
					got, err := s.GetCols(id, cols, nil)
					if err != nil {
						t.Fatalf("GetCols(%d, %v): %v", id, cols, err)
					}
					want := full
					if cols != nil {
						want = make([]sheet.Value, len(cols))
						for j, c := range cols {
							want[j] = full[c]
						}
					}
					if len(got) != len(want) {
						t.Fatalf("GetCols(%d, %v) width %d want %d", id, cols, len(got), len(want))
					}
					for j := range want {
						if !got[j].Equal(want[j]) {
							t.Fatalf("GetCols(%d, %v)[%d] = %v want %v", id, cols, j, got[j], want[j])
						}
					}
				}
			}
			if _, err := s.GetCols(3, []int{9}, nil); err == nil {
				t.Fatal("out-of-range column accepted")
			}
			if err := s.Delete(42); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetCols(42, []int{0}, nil); err == nil {
				t.Fatal("deleted row visible through GetCols")
			}
			if _, err := s.GetCols(RowID(n+5), []int{0}, nil); err == nil {
				t.Fatal("missing row visible through GetCols")
			}
		})
	}
}

// TestDecodedHitSkipsPoolRead pins the read order of the one tuple loop: the
// decoded-page cache is probed by version before any page bytes are fetched,
// so re-scanning a table far larger than its pool — through a pinned
// snapshot or through Store.Scan's borrowed view — reads no page.
func TestDecodedHitSkipsPoolRead(t *testing.T) {
	for _, sh := range Shapes {
		t.Run(sh.Name, func(t *testing.T) {
			pool := pager.NewBufferPool(pager.NewStore(), 2)
			s := NewHybridStore(pool, 4, WithGroupSize(sh.GroupSize))
			fillStore(t, s, 1500)
			all := func(RowID, []sheet.Value) bool { return true }
			if err := scanCols(s, nil, all); err != nil {
				t.Fatal(err)
			}
			before := pool.Stats()
			if err := scanCols(s, nil, all); err != nil {
				t.Fatal(err)
			}
			if err := s.Scan(all); err != nil {
				t.Fatal(err)
			}
			if after := pool.Stats(); after != before {
				t.Fatalf("warm re-scan touched the pool: %+v -> %+v", before, after)
			}
		})
	}
}
