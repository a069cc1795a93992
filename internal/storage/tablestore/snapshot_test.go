package tablestore

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

type snapRow struct {
	id  RowID
	row []sheet.Value
}

func collectScan(t *testing.T, scan func(fn func(RowID, []sheet.Value) bool) error) []snapRow {
	t.Helper()
	var out []snapRow
	if err := scan(func(id RowID, row []sheet.Value) bool {
		out = append(out, snapRow{id: id, row: cloneRow(row)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func snapStores() map[string]struct {
	pool  *pager.BufferPool
	store Store
} {
	out := make(map[string]struct {
		pool  *pager.BufferPool
		store Store
	})
	for _, sh := range Shapes {
		p := pager.NewBufferPool(pager.NewStore(), 256)
		out[sh.Name] = struct {
			pool  *pager.BufferPool
			store Store
		}{p, NewHybridStore(p, 4, WithGroupSize(sh.GroupSize))}
	}
	return out
}

// TestSnapshotFrozenUnderMutation pins a snapshot, mutates the live store
// heavily (updates, deletes, inserts, a schema change), and asserts the
// snapshot still scans exactly the pre-mutation contents while the live
// store sees the new state. Releasing the last snapshot must drop every
// retained page version.
func TestSnapshotFrozenUnderMutation(t *testing.T) {
	const n = 1500
	for name, tc := range snapStores() {
		t.Run(name, func(t *testing.T) {
			s, pool := tc.store, tc.pool
			fillStore(t, s, n)
			for _, id := range []RowID{2, 800} {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			before := collectScan(t, func(fn func(RowID, []sheet.Value) bool) error {
				return scanCols(s, nil, fn)
			})

			snap := s.Snapshot()
			defer snap.Release()
			if snap.RowCount() != n-2 {
				t.Fatalf("snap.RowCount = %d, want %d", snap.RowCount(), n-2)
			}

			// Mutate everything the snapshot might observe.
			for i := 0; i < n; i += 3 {
				id := RowID(i + 1)
				if id == 2 || id == 800 {
					continue
				}
				if err := s.Update(id, []sheet.Value{
					sheet.Number(-1), sheet.String_("mutated"), sheet.Number(-2), sheet.Bool_(false),
				}); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []RowID{10, 20, 30} {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				if _, err := s.Insert([]sheet.Value{
					sheet.Number(float64(n + i)), sheet.String_("new"), sheet.Number(0), sheet.Bool_(true),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.DropColumn(3); err != nil {
				t.Fatal(err)
			}

			after := collectScan(t, func(fn func(RowID, []sheet.Value) bool) error {
				parts, _, _ := snap.Partitions(1, nil, nil)
				return snap.ScanColsRange(parts[0], nil, fn)
			})
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("snapshot scan diverged from pre-mutation scan: %d vs %d rows", len(before), len(after))
			}

			snap.Release()
			if pinned, retained := pool.EpochStats(); pinned != 0 || retained != 0 {
				t.Fatalf("after release EpochStats = (%d, %d), want (0, 0)", pinned, retained)
			}
		})
	}
}

// TestSnapshotPartitionsReproduceSerialOrder asserts that concatenating
// per-partition scans in partition order equals the serial full scan, for
// several worker counts and projections.
func TestSnapshotPartitionsReproduceSerialOrder(t *testing.T) {
	const n = 2100
	for name, tc := range snapStores() {
		t.Run(name, func(t *testing.T) {
			s := tc.store
			fillStore(t, s, n)
			for _, id := range []RowID{1, 500, 1200, RowID(n)} {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.Snapshot()
			defer snap.Release()
			for _, cols := range [][]int{nil, {0}, {2, 0}, {1, 3}} {
				serial := collectScan(t, func(fn func(RowID, []sheet.Value) bool) error {
					return snap.ScanColsRange(Partition{Lo: 0, Hi: 1 << 30}, cols, fn)
				})
				for _, workers := range []int{1, 2, 4, 7, 64} {
					parts, _, _ := snap.Partitions(workers, cols, nil)
					if len(parts) == 0 || len(parts) > workers {
						t.Fatalf("Partitions(%d) returned %d parts", workers, len(parts))
					}
					var merged []snapRow
					for _, p := range parts {
						merged = append(merged, collectScan(t, func(fn func(RowID, []sheet.Value) bool) error {
							return snap.ScanColsRange(p, cols, fn)
						})...)
					}
					if !reflect.DeepEqual(serial, merged) {
						t.Fatalf("cols %v workers %d: partitioned scan diverged (%d vs %d rows)",
							cols, workers, len(serial), len(merged))
					}
				}
			}
		})
	}
}

// TestSnapshotConcurrentPartitionScans drives all partitions of one
// snapshot from concurrent goroutines while a writer churns the live store,
// asserting every partition sees frozen data (run with -race to catch
// unsynchronized access).
func TestSnapshotConcurrentPartitionScans(t *testing.T) {
	const n = 1200
	for name, tc := range snapStores() {
		t.Run(name, func(t *testing.T) {
			s := tc.store
			fillStore(t, s, n)
			snap := s.Snapshot()
			defer snap.Release()

			stop := make(chan struct{})
			writerDone := make(chan error, 1)
			go func() {
				defer close(writerDone)
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := RowID(i%n + 1)
					err := s.Update(id, []sheet.Value{
						sheet.Number(float64(-i)), sheet.String_("churn"),
						sheet.Number(float64(i)), sheet.Bool_(i%2 == 0),
					})
					if err != nil {
						writerDone <- err
						return
					}
					i++
				}
			}()

			parts, _, _ := snap.Partitions(4, nil, nil)
			errs := make(chan error, 2*len(parts))
			for _, p := range parts {
				go func(p Partition) {
					errs <- snap.ScanColsRange(p, []int{1, 0}, func(id RowID, row []sheet.Value) bool {
						i := int(id - 1)
						if got := row[0]; !got.Equal(sheet.String_(fmt.Sprintf("s%d", i))) {
							errs <- fmt.Errorf("row %d saw churned value %v", id, got)
							return false
						}
						return true
					})
				}(p)
			}
			for range parts {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			if err := <-writerDone; err != nil {
				t.Fatal(err)
			}
		})
	}
}
