package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// zoneFuzzQuery runs one query twice — zone skipping live and forced off —
// and fails on any divergence. Results are rendered to strings so the
// comparison is row-for-row and value-for-value.
func zoneFuzzQuery(t *testing.T, ds *DataSpread, q string) {
	t.Helper()
	render := func() string {
		res, err := ds.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var sb strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	ds.db.SetPlanHint(sqlexec.PlanHint{NoSkip: true})
	want := render()
	ds.db.SetPlanHint(sqlexec.PlanHint{})
	got := render()
	if want != got {
		t.Fatalf("%s: pruned scan diverges from unskipped scan:\nskipped:\n%s\nfull:\n%s", q, got, want)
	}
}

// TestZoneMapFuzz drives a fixed-seed random interleaving of inserts,
// updates, deletes, checkpoints and reopens against a durable workbook, and
// after every step asserts the two zone-map invariants: every page summary
// covers its page's decoded contents (ValidateZones), and pruned scans are
// row-for-row identical to forced-unskipped scans.
func TestZoneMapFuzz(t *testing.T) {
	const steps = 60
	rng := rand.New(rand.NewSource(20250808))
	path := filepath.Join(t.TempDir(), "fuzz.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ds.Close() }()
	if _, err := ds.Query("CREATE TABLE f (id NUMERIC PRIMARY KEY, ts NUMERIC, cat TEXT)"); err != nil {
		t.Fatal(err)
	}
	cats := []string{"red", "green", "blue"}
	nextID := 0
	insertBatch := func(n int) {
		vals := make([]string, n)
		for i := range vals {
			ts := nextID
			if rng.Intn(12) == 0 {
				vals[i] = fmt.Sprintf("(%d, NULL, '%s')", nextID, cats[rng.Intn(len(cats))])
			} else {
				vals[i] = fmt.Sprintf("(%d, %d, '%s')", nextID, ts, cats[rng.Intn(len(cats))])
			}
			nextID++
		}
		if _, err := ds.Query("INSERT INTO f VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	insertBatch(200) // seed enough rows for several sealed pages

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			insertBatch(1 + rng.Intn(60))
		case op < 5:
			id := rng.Intn(nextID)
			ts := rng.Intn(3 * nextID) // often far outside the page's old zone
			if _, err := ds.Query(fmt.Sprintf("UPDATE f SET ts = %d WHERE id = %d", ts, id)); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			lo := rng.Intn(nextID)
			if _, err := ds.Query(fmt.Sprintf("DELETE FROM f WHERE ts BETWEEN %d AND %d", lo, lo+rng.Intn(25))); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if err := ds.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		default:
			if err := ds.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			ds, err = OpenFile(path, Options{CheckpointWALBytes: -1})
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		}
		if err := ds.db.ValidateZones(); err != nil {
			t.Fatalf("step %d: summary does not cover its page: %v", step, err)
		}
		c := rng.Intn(nextID + 10)
		for _, q := range []string{
			fmt.Sprintf("SELECT COUNT(id) FROM f WHERE ts = %d", c),
			fmt.Sprintf("SELECT id, cat FROM f WHERE ts < %d ORDER BY id", rng.Intn(nextID/4+1)),
			fmt.Sprintf("SELECT COUNT(id) FROM f WHERE ts >= %d", c),
			fmt.Sprintf("SELECT id FROM f WHERE ts BETWEEN %d AND %d ORDER BY id", c, c+30),
		} {
			zoneFuzzQuery(t, ds, q)
		}
	}
}

// TestZoneBlobCorruptionDegrades is the fault contract of the advisory zone
// catalog: a corrupted (or garbage) zone-page blob on disk must degrade the
// reopened workbook to "no page skipping" — open succeeds, Health stays nil,
// queries stay correct — and the next checkpoint restores skipping.
func TestZoneBlobCorruptionDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zone.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Query("CREATE TABLE z (id NUMERIC PRIMARY KEY, ts NUMERIC)"); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 1000; lo += 100 {
		vals := make([]string, 100)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, %d)", lo+i, lo+i)
		}
		if _, err := ds.Query("INSERT INTO z VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Locate the committed root's zone page and stomp it with garbage.
	be, err := pager.OpenFileStoreVFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Attach(nil); err != nil {
		t.Fatal(err)
	}
	root, _, fresh := loadRoots(be)
	if fresh {
		t.Fatal("no valid root after checkpoint")
	}
	if root.zonePage == 0 {
		t.Fatal("checkpoint recorded no zone page")
	}
	if err := be.WritePage(root.zonePage, []byte("this is not a zone catalog")); err != nil {
		t.Fatal(err)
	}
	if err := be.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatalf("reopen with corrupt zone blob failed: %v", err)
	}
	defer func() { _ = re.Close() }()
	if herr := re.Health(); herr != nil {
		t.Fatalf("corrupt zone blob poisoned the workbook: %v", herr)
	}
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Fatalf("corrupt zone blob surfaced recovery errors: %v", errs)
	}
	res, err := re.Query("SELECT COUNT(id) FROM z WHERE ts >= 900")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].String(); got != "100" {
		t.Fatalf("query after corrupt zone blob = %s rows, want 100", got)
	}
	// The degraded workbook must not be skipping: the selective scan reads
	// every page.
	re.db.ResetScanStats()
	if _, err := re.Query("SELECT COUNT(id) FROM z WHERE ts = 950"); err != nil {
		t.Fatal(err)
	}
	if _, skipped := re.db.ScanStats(); skipped != 0 {
		t.Fatalf("workbook skipped %d pages from a corrupt zone catalog", skipped)
	}
	// Summaries rebuild as pages are rewritten: touch every row, checkpoint,
	// and the next reopen prunes again.
	if _, err := re.Query("UPDATE z SET ts = ts"); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re2.Close() }()
	re2.db.ResetScanStats()
	if _, err := re2.Query("SELECT COUNT(id) FROM z WHERE ts = 950"); err != nil {
		t.Fatal(err)
	}
	if _, skipped := re2.db.ScanStats(); skipped == 0 {
		t.Fatal("re-checkpointed workbook prunes nothing")
	}
	if err := re2.db.ValidateZones(); err != nil {
		t.Fatal(err)
	}
}
