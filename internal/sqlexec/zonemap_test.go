package sqlexec

import (
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Zone-map golden tests: for every query shape and every physical layout,
// the zone-pruned scan must be row-for-row identical to the forced
// unskipped scan (SetForceNoSkip), including after in-place mutations and a
// marshal/attach cycle — and selective predicates must actually skip pages.

// newZoneDB builds a table whose ts column is clustered with insertion order
// (so its page zones are tight and prunable), val is scattered (wide zones),
// and cat is low-NDV text (dictionary-encoded). A sprinkle of NULLs
// exercises the NULL-never-matches rule; ts is deliberately NOT indexed.
func newZoneDB(t *testing.T, layout Layout, backend pager.Backend) (*Database, *Session) {
	t.Helper()
	db := NewDatabase(Config{Layout: layout, Backend: backend})
	s := db.NewSession(newFakeSheets())
	mustExec(t, s, "CREATE TABLE ev (id INT PRIMARY KEY, ts NUMERIC, val NUMERIC, cat TEXT)")
	cats := []string{"alpha", "beta", "gamma", "delta"}
	const n = 2000
	for i := 0; i < n; i++ {
		ts := sheet.Number(float64(i))
		if i%97 == 0 {
			ts = sheet.Empty()
		}
		row := []sheet.Value{
			sheet.Number(float64(i)),
			ts,
			sheet.Number(float64((i * 37) % 1000)),
			sheet.String_(cats[i%len(cats)]),
		}
		if _, err := db.Insert("ev", row); err != nil {
			t.Fatal(err)
		}
	}
	return db, s
}

var zoneQueries = []string{
	"SELECT id FROM ev WHERE ts = 1500",
	"SELECT id FROM ev WHERE ts = -3",
	"SELECT id, val FROM ev WHERE ts < 100",
	"SELECT id FROM ev WHERE ts <= 0",
	"SELECT id FROM ev WHERE ts >= 1900",
	"SELECT id FROM ev WHERE ts > 1995",
	"SELECT id FROM ev WHERE ts BETWEEN 700 AND 750",
	"SELECT COUNT(*) FROM ev WHERE ts > 1000",
	"SELECT id FROM ev WHERE ts IN (5, 500, 1500, 99999)",
	"SELECT id FROM ev WHERE val = 370 AND ts < 200",
	"SELECT cat, COUNT(*) FROM ev WHERE ts < 400 GROUP BY cat ORDER BY cat",
	"SELECT cat, COUNT(id), SUM(val) FROM ev WHERE ts >= 1980 GROUP BY cat",
	"SELECT cat, COUNT(id), SUM(val) FROM ev WHERE ts >= 0 GROUP BY cat",
	"SELECT id FROM ev WHERE cat = 'alpha' AND ts BETWEEN 100 AND 140",
	"SELECT id FROM ev WHERE cat = 'gamma'",
	"SELECT COUNT(id) FROM ev WHERE cat = 'beta'",
	"SELECT SUM(val) FROM ev WHERE ts >= 1800 AND ts < 1900",
	// Index path (pk range) whose candidates are zone-checked on ts.
	"SELECT id, val FROM ev WHERE id BETWEEN 100 AND 900 AND ts < 150",
	// LIMIT/OFFSET cut applied past skipped pages, scan and index path.
	"SELECT id, val FROM ev WHERE ts >= 1200 LIMIT 25 OFFSET 10",
	"SELECT id FROM ev WHERE id BETWEEN 100 AND 900 AND ts < 150 LIMIT 7 OFFSET 3",
}

// runSkippedVsUnskipped executes each query twice — once with zone-map
// skipping live, once with SetForceNoSkip — and fails on any divergence.
func runSkippedVsUnskipped(t *testing.T, db *Database, s *Session, queries []string, when string) {
	t.Helper()
	for _, q := range queries {
		db.SetForceNoSkip(true)
		want := mustExec(t, s, q)
		db.SetForceNoSkip(false)
		got := mustExec(t, s, q)
		if diff := resultsEqual(want, got); diff != "" {
			t.Errorf("%s (%s): pruned scan diverges from unskipped scan: %s", q, when, diff)
		}
	}
}

func TestZoneMapGoldenEquivalence(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			db, s := newZoneDB(t, layout, nil)
			if err := db.ValidateZones(); err != nil {
				t.Fatal(err)
			}
			runSkippedVsUnskipped(t, db, s, zoneQueries, "fresh")

			// A selective predicate over the clustered column must actually
			// drop pages, not just agree with the full scan.
			db.SetForceNoSkip(false)
			db.ResetScanStats()
			mustExec(t, s, "SELECT id FROM ev WHERE ts = 1500")
			read, skipped := db.ScanStats()
			if skipped == 0 {
				t.Errorf("selective scan skipped no pages (read %d)", read)
			}
			if read > skipped {
				t.Errorf("selective scan read %d pages but skipped only %d", read, skipped)
			}

			// EXPLAIN reports the skip ratio for the source.
			plan := mustExec(t, s, "EXPLAIN SELECT id FROM ev WHERE ts = 1500")
			if text := planText(plan); !strings.Contains(text, "zone maps: ") {
				t.Errorf("EXPLAIN lacks zone-map stats: %q", text)
			}
		})
	}
}

// TestZoneMapEquivalenceAfterChurn re-runs the goldens after UPDATE/DELETE
// churn has rewritten and tombstoned sealed pages, then validates every
// surviving summary against its page's decoded contents.
func TestZoneMapEquivalenceAfterChurn(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			db, s := newZoneDB(t, layout, nil)
			mustExec(t, s, "UPDATE ev SET ts = 5000 WHERE id = 123")
			mustExec(t, s, "UPDATE ev SET cat = 'omega' WHERE ts > 1800")
			mustExec(t, s, "DELETE FROM ev WHERE ts BETWEEN 300 AND 400")
			mustExec(t, s, "UPDATE ev SET val = -1 WHERE ts < 50")
			mustExec(t, s, "INSERT INTO ev VALUES (9000, 42.5, 7, 'alpha')")
			if err := db.ValidateZones(); err != nil {
				t.Fatal(err)
			}
			churned := append([]string(nil), zoneQueries...)
			churned = append(churned,
				"SELECT id FROM ev WHERE ts = 5000",
				"SELECT id FROM ev WHERE ts = 350",
				"SELECT id, cat FROM ev WHERE ts = 42.5",
				"SELECT COUNT(*) FROM ev WHERE val < 0",
			)
			runSkippedVsUnskipped(t, db, s, churned, "after churn")
		})
	}
}

// TestZoneMapStaleSummaryRegression is the false-skip regression: an
// in-place rewrite of a sealed page (UPDATE through the pk index, then a
// DELETE) must refresh the page's summary, so a value that moved OUTSIDE the
// old zone is still found by the pruned scan.
func TestZoneMapStaleSummaryRegression(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			db, s := newZoneDB(t, layout, nil)
			// id 700 sits in a sealed page whose ts zone is ~[672, 768).
			// Move its ts far outside that range via the pk point path.
			mustExec(t, s, "UPDATE ev SET ts = 99999 WHERE id = 700")
			if err := db.ValidateZones(); err != nil {
				t.Fatalf("stale summary after UPDATE: %v", err)
			}
			db.SetForceNoSkip(false)
			res := mustExec(t, s, "SELECT id FROM ev WHERE ts = 99999")
			if len(res.Rows) != 1 || res.Rows[0][0].String() != "700" {
				t.Fatalf("pruned scan lost the updated row (stale zone false skip): %v", res.Rows)
			}
			// The old slot value must no longer match anywhere.
			res = mustExec(t, s, "SELECT id FROM ev WHERE ts = 700")
			if len(res.Rows) != 0 {
				t.Fatalf("old value still visible after update: %v", res.Rows)
			}
			// Delete the row; the pruned scan must agree it is gone.
			mustExec(t, s, "DELETE FROM ev WHERE id = 700")
			if err := db.ValidateZones(); err != nil {
				t.Fatalf("stale summary after DELETE: %v", err)
			}
			res = mustExec(t, s, "SELECT id FROM ev WHERE ts = 99999")
			if len(res.Rows) != 0 {
				t.Fatalf("deleted row resurfaced: %v", res.Rows)
			}
		})
	}
}

// TestMarshalAttachZones: a zone catalog marshalled from one database and
// attached to a page-attached twin must prune correctly there — and a
// corrupted blob must degrade to "no skipping", never to wrong results.
func TestMarshalAttachZones(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			backend := pager.NewStore()
			db, s := newZoneDB(t, layout, backend)
			pagesBlob, err := db.MarshalPages()
			if err != nil {
				t.Fatal(err)
			}
			zonesBlob := db.MarshalZones()

			attach := func(t *testing.T) (*Database, *Session) {
				t.Helper()
				db2 := NewDatabase(Config{Layout: layout, Backend: backend})
				if err := db2.AttachPages(pagesBlob); err != nil {
					t.Fatal(err)
				}
				return db2, db2.NewSession(newFakeSheets())
			}

			db2, s2 := attach(t)
			if err := db2.AttachZones(zonesBlob); err != nil {
				t.Fatal(err)
			}
			if err := db2.ValidateZones(); err != nil {
				t.Fatal(err)
			}
			runSkippedVsUnskipped(t, db2, s2, zoneQueries, "after attach")
			db2.SetForceNoSkip(false)
			db2.ResetScanStats()
			mustExec(t, s2, "SELECT id FROM ev WHERE ts = 1500")
			if _, skipped := db2.ScanStats(); skipped == 0 {
				t.Error("attached zone catalog prunes nothing")
			}

			// Corruption at assorted offsets: AttachZones must error (or, if
			// the flip survives frame+shape validation, summaries must still
			// validate) and queries must stay correct either way.
			for _, pos := range []int{0, 9, len(zonesBlob) / 2, len(zonesBlob) - 1} {
				corrupt := append([]byte(nil), zonesBlob...)
				corrupt[pos] ^= 0x40
				db3, s3 := attach(t)
				if err := db3.AttachZones(corrupt); err == nil {
					if err := db3.ValidateZones(); err != nil {
						t.Fatalf("flip@%d: corrupt blob attached unsound summaries: %v", pos, err)
					}
				}
				db3.SetForceNoSkip(false)
				res := mustExec(t, s3, "SELECT COUNT(*) FROM ev WHERE ts >= 0")
				want := mustExec(t, s, "SELECT COUNT(*) FROM ev WHERE ts >= 0")
				if diff := resultsEqual(want, res); diff != "" {
					t.Fatalf("flip@%d: wrong results after corrupt zone blob: %s", pos, diff)
				}
			}
			// Truncated frame is rejected outright.
			db4, _ := attach(t)
			if err := db4.AttachZones(zonesBlob[:8]); err == nil {
				t.Error("truncated zone blob attached without error")
			}
		})
	}
}

// TestZoneMapParallelEquivalence drives the pruned morsel path: a table past
// the parallel threshold, scanned with multiple workers, must agree with the
// serial unskipped scan and report workers + partitions in EXPLAIN.
func TestZoneMapParallelEquivalence(t *testing.T) {
	db := NewDatabase(Config{Layout: LayoutHybrid, Workers: 4})
	s := db.NewSession(newFakeSheets())
	mustExec(t, s, "CREATE TABLE big (id INT PRIMARY KEY, ts NUMERIC, v NUMERIC)")
	const n = 6000 // past parMinRows
	for i := 0; i < n; i++ {
		if _, err := db.Insert("big", []sheet.Value{
			sheet.Number(float64(i)), sheet.Number(float64(i)), sheet.Number(float64(i % 11)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM big WHERE ts < 500",
		"SELECT SUM(v) FROM big WHERE ts >= 5500",
		"SELECT COUNT(*) FROM big WHERE ts BETWEEN 2000 AND 2100 AND v = 3",
		"SELECT COUNT(*) FROM big WHERE ts = 123456",
	} {
		db.SetForceNoSkip(true)
		want := mustExec(t, s, q)
		db.SetForceNoSkip(false)
		got := mustExec(t, s, q)
		if diff := resultsEqual(want, got); diff != "" {
			t.Errorf("%s: parallel pruned scan diverges: %s", q, diff)
		}
	}
	db.ResetScanStats()
	mustExec(t, s, "SELECT COUNT(*) FROM big WHERE ts < 500")
	if _, skipped := db.ScanStats(); skipped == 0 {
		t.Error("parallel selective scan skipped no pages")
	}
	plan := mustExec(t, s, "EXPLAIN SELECT COUNT(*) FROM big WHERE ts < 500")
	text := planText(plan)
	if !strings.Contains(text, "parallel: 4 workers") || !strings.Contains(text, "partitions") {
		t.Errorf("EXPLAIN lacks parallel scan details: %q", text)
	}
	if !strings.Contains(text, "zone maps: ") {
		t.Errorf("EXPLAIN lacks zone-map stats: %q", text)
	}
}

// TestSetForceNoSkipToggles sanity-checks the switch itself: with skipping
// forced off, a selective scan reports no skipped pages.
func TestSetForceNoSkipToggles(t *testing.T) {
	db, s := newZoneDB(t, LayoutHybrid, nil)
	db.SetForceNoSkip(true)
	db.ResetScanStats()
	mustExec(t, s, "SELECT id FROM ev WHERE ts = 1500")
	if read, skipped := db.ScanStats(); read != 0 || skipped != 0 {
		t.Fatalf("forced-unskipped scan still went through the pruned path (read %d, skipped %d)", read, skipped)
	}
}
