package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

const sweepRows = 10

// sweepOutcome describes one run of the fixed sweep workload.
type sweepOutcome struct {
	created bool   // CREATE TABLE acknowledged
	acked   int    // highest insert acknowledged with a nil error
	err     error  // first surfaced error
	site    string // where it surfaced
}

// runSweepWorkload executes the fixed workload against fsys: open, create a
// table with a primary key and a secondary index, insert rows 1..6,
// checkpoint (table pages, leaf pages of both indexes, catalog, root),
// insert rows 7..10, close. It stops issuing commands at the first error;
// while the workbook is still open it checks the degraded-mode contract
// (writes rejected, reads served) before closing.
func runSweepWorkload(t *testing.T, path string, fsys vfs.FS, label string) sweepOutcome {
	t.Helper()
	var out sweepOutcome
	ds, err := OpenFile(path, Options{FS: fsys, CheckpointWALBytes: -1})
	if err != nil {
		out.err, out.site = err, "open"
		return out
	}
	fail := func(site string, err error) bool {
		if err == nil {
			return false
		}
		if out.err == nil {
			out.err, out.site = err, site
		}
		return true
	}
	_, err = ds.Query("CREATE TABLE t (id NUMERIC PRIMARY KEY, g NUMERIC, v TEXT)")
	if !fail("create", err) {
		out.created = true
		_, err = ds.Query("CREATE INDEX t_g ON t (g)")
	}
	if !fail("create-index", err) {
		for i := 1; i <= sweepRows; i++ {
			if i == 7 {
				if fail("checkpoint", ds.Checkpoint()) {
					break
				}
			}
			_, err := ds.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'v%d')", i, i%2, i))
			if fail(fmt.Sprintf("insert-%d", i), err) {
				break
			}
			out.acked = i
		}
	}
	if out.err != nil {
		probeDegraded(t, ds, out, label)
	}
	if cErr := ds.Close(); cErr != nil && out.err == nil {
		out.err, out.site = cErr, "close"
	}
	return out
}

// probeDegraded checks the degraded-mode contract on a workbook that
// surfaced an error and is still open: if it poisoned itself, every write
// must be rejected with ErrReadOnly while reads keep serving the in-memory
// state; if it stayed healthy (a transient failure that rolled up cleanly,
// like a checkpoint that touched nothing durable), Health must be clean.
func probeDegraded(t *testing.T, ds *DataSpread, out sweepOutcome, label string) {
	t.Helper()
	if !ds.isPoisoned() {
		if herr := ds.Health(); herr != nil {
			t.Errorf("%s: healthy workbook Health() = %v, want nil", label, herr)
		}
		return
	}
	herr := ds.Health()
	if herr == nil || !errors.Is(herr, dberr.ErrReadOnly) || !errors.Is(herr, dberr.ErrIO) {
		t.Errorf("%s: poisoned Health() = %v, want ErrReadOnly wrapping ErrIO", label, herr)
	}
	// The write probe must survive statement analysis even when table t was
	// never created, so it creates a fresh table instead of inserting.
	probe := "CREATE TABLE probe_t (x NUMERIC)"
	if out.created {
		probe = "INSERT INTO t VALUES (99, 1, 'probe')"
	}
	if _, err := ds.Query(probe); err == nil || !errors.Is(err, dberr.ErrReadOnly) {
		t.Errorf("%s: write on poisoned workbook = %v, want ErrReadOnly", label, err)
	}
	if out.created {
		res, err := ds.Query("SELECT id FROM t")
		if err != nil {
			t.Errorf("%s: read on poisoned workbook failed: %v", label, err)
		} else if n := len(res.Rows); n < out.acked || n > out.acked+1 {
			// A failed insert may have left one partial in-memory row; it can
			// never have dropped an acknowledged one.
			t.Errorf("%s: poisoned read shows %d rows, want %d..%d", label, n, out.acked, out.acked+1)
		}
	}
}

// verifySweepReopen reopens the workbook on the real filesystem (the fault is
// gone — the "disk" recovered) and asserts the recovery contract: the open
// succeeds, and table t holds exactly a contiguous committed prefix 1..m with
// m >= every acknowledged insert — by full scan, through the primary-key
// leaves and, when the index made it, through the secondary-index leaves. m
// may exceed the acknowledged count: a commit whose WAL frame reached the
// file before the failure was never acknowledged, but recovering it keeps
// the prefix property.
func verifySweepReopen(t *testing.T, path string, out sweepOutcome, label string) {
	t.Helper()
	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("%s: reopen after fault failed: %v", label, err)
	}
	if errs := re.RecoveryErrors(); len(errs) != 0 {
		t.Errorf("%s: recovery errors on reopen: %v", label, errs)
	}
	res, err := re.Query("SELECT id FROM t ORDER BY id")
	if err != nil {
		// Only legal if the CREATE was never acknowledged (and its WAL frame
		// never reached the file).
		if out.created || !errors.Is(err, dberr.ErrTableNotFound) {
			t.Fatalf("%s: reopen query = %v (created=%v)", label, err, out.created)
		}
	} else {
		m := len(res.Rows)
		if m < out.acked || m > sweepRows {
			t.Fatalf("%s: reopen recovered %d rows, want %d..%d", label, m, out.acked, sweepRows)
		}
		for i, row := range res.Rows {
			if int(row[0].Num) != i+1 {
				t.Fatalf("%s: reopen row %d = %v, want %d (recovered set is not a contiguous prefix)", label, i, row[0], i+1)
			}
		}
		for _, q := range []string{"SELECT id FROM t WHERE id >= 1", "SELECT id FROM t WHERE g >= 0"} {
			if via, err := re.Query(q); err != nil {
				t.Fatalf("%s: reopen %s: %v", label, q, err)
			} else if len(via.Rows) != m {
				t.Fatalf("%s: reopen %s = %d rows, full scan has %d", label, q, len(via.Rows), m)
			}
		}
	}
	if err := re.Close(); err != nil {
		t.Fatalf("%s: close reopened workbook: %v", label, err)
	}
}

// TestSingleFaultSweep is the exhaustive single-fault sweep: it counts the
// mutating filesystem operations of a fixed workload, then re-runs the
// workload once per operation index k with the k-th operation failing — with
// EIO, with ENOSPC, and as a torn sector-sized write — and asserts the fault
// contract after every single injection:
//
//  1. any surfaced error is classified under dberr.ErrIO (and dberr.ErrDiskFull
//     for ENOSPC), never a raw errno;
//  2. a workbook that poisoned itself rejects writes with ErrReadOnly while
//     still serving reads (probeDegraded), and a failed fsync never turns
//     into a silently successful run (fsync-gate);
//  3. reopening on a healthy filesystem succeeds and recovers exactly a
//     contiguous committed prefix — at least every acknowledged insert, never
//     a gap, never an invented row.
func TestSingleFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is long; skipped with -short")
	}
	// Count run: no fault armed, same workload.
	count := vfs.NewFaultFS(nil)
	base := runSweepWorkload(t, filepath.Join(t.TempDir(), "book.dsp"), count, "count-run")
	if base.err != nil {
		t.Fatalf("count run failed at %s: %v", base.site, base.err)
	}
	if base.acked != sweepRows {
		t.Fatalf("count run acked %d rows, want %d", base.acked, sweepRows)
	}
	n := count.Ops()
	if n < 20 {
		t.Fatalf("count run used %d mutating ops; workload too small for a meaningful sweep", n)
	}
	t.Logf("sweeping %d mutating filesystem ops × 3 fault flavours", n)

	flavours := []struct {
		name  string
		fault vfs.Fault
	}{
		{"eio", vfs.Fault{Err: syscall.EIO}},
		{"enospc", vfs.Fault{Err: syscall.ENOSPC}},
		{"torn", vfs.Fault{Err: syscall.EIO, TornBytes: 512}},
	}
	for _, fl := range flavours {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			for k := int64(1); k <= n; k++ {
				label := fmt.Sprintf("%s@op%d", fl.name, k)
				ffs := vfs.NewFaultFS(nil)
				f := fl.fault
				f.Op = k
				ffs.SetFault(f)
				path := filepath.Join(t.TempDir(), "book.dsp")
				out := runSweepWorkload(t, path, ffs, label)
				op, hitPath, hit := ffs.Hit()
				if !hit {
					t.Fatalf("%s: fault never fired (fault run used fewer ops than the count run)", label)
				}
				if out.err != nil {
					if !errors.Is(out.err, dberr.ErrIO) {
						t.Errorf("%s (%s on %s): error at %s not ErrIO-classified: %v", label, op, hitPath, out.site, out.err)
					}
					if fl.name == "enospc" && !errors.Is(out.err, dberr.ErrDiskFull) {
						t.Errorf("%s (%s on %s): ENOSPC at %s not ErrDiskFull-classified: %v", label, op, hitPath, out.site, out.err)
					}
				} else if op == vfs.OpSync {
					// fsync-gate: a failed fsync must never be absorbed into a
					// fully successful run.
					t.Errorf("%s: failed fsync on %s surfaced no error anywhere", label, hitPath)
				}
				verifySweepReopen(t, path, out, label)
			}
		})
	}
}
