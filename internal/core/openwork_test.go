package core

import (
	"path/filepath"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
)

// TestOpenWorkIndependentOfTableSize: opening a checkpointed workbook and
// answering a bare COUNT(*) allocates about as much for a table ten times
// larger. The open reads the catalogs but decodes no zone entry, builds no
// index node and hashes no page id one by one; those wait for a query that
// needs them. Allocation counts, unlike wall time, do not depend on the host.
func TestOpenWorkIndependentOfTableSize(t *testing.T) {
	allocs := func(n int) float64 {
		path := filepath.Join(t.TempDir(), "book.dsp")
		ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.QueryScript(`
			CREATE TABLE seq (n INT PRIMARY KEY, v NUMERIC);
			CREATE INDEX seq_v ON seq (v);`); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if _, err := ds.DB().Insert("seq", []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(2 * i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			if got := queryNums(t, ds, "SELECT COUNT(*) FROM seq"); got[0] != n {
				t.Fatalf("COUNT(*) = %d, want %d", got[0], n)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("open + COUNT(*) + Close: %.0f allocations at 2k rows, %.0f at 20k", small, large)
	if large > 1.25*small {
		t.Errorf("20k rows cost %.0f allocations to open, 2k rows %.0f: want at most 1.25x", large, small)
	}
}
