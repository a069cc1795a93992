package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/vfs"
)

// TestSingleWriterLock verifies the flock-based single-writer rule: a second
// process-level opener of the same workbook fails with a clear error while
// the first holds the lock, and can open once the first closes.
func TestSingleWriterLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, Options{}); err == nil {
		t.Fatal("second opener acquired the workbook while it was locked")
	} else if !errors.Is(err, dberr.ErrConflict) {
		// The conflict must classify as dberr.ErrConflict even though the
		// lock path joins the close error into the returned error.
		t.Fatalf("second-opener error = %v, want errors.Is dberr.ErrConflict", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryFuzz is the randomized crash-recovery seed: a recorded
// WAL is truncated or bit-flipped at arbitrary offsets and recovery must
// always yield a committed prefix — cells A1..Ak hold their committed
// values for some k, every later cell is untouched, and no recovered value
// is ever wrong.
func TestCrashRecoveryFuzz(t *testing.T) {
	const commands = 30
	base := t.TempDir()
	path := filepath.Join(base, "book.dsp")
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= commands; i++ {
		wait, err := ds.SetCell("Sheet1", fmt.Sprintf("A%d", i), fmt.Sprintf("%d", 1000+i))
		if err != nil {
			t.Fatal(err)
		}
		wait()
	}
	ds.Wait()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	pristineWAL, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	pristineHeap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		wal := append([]byte(nil), pristineWAL...)
		var desc string
		if trial%2 == 0 {
			cut := rng.Intn(len(wal) + 1)
			wal = wal[:cut]
			desc = fmt.Sprintf("truncate@%d", cut)
		} else {
			pos := rng.Intn(len(wal))
			bit := byte(1) << uint(rng.Intn(8))
			wal[pos] ^= bit
			desc = fmt.Sprintf("bitflip@%d/%#x", pos, bit)
		}

		dir := filepath.Join(base, fmt.Sprintf("trial%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "book.dsp")
		if err := os.WriteFile(p, pristineHeap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(p), wal, 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := OpenFile(p, Options{})
		if err != nil {
			t.Fatalf("%s: recovery refused to open: %v", desc, err)
		}
		// Find the recovered prefix length: the first unset cell ends it.
		k := 0
		for i := 1; i <= commands; i++ {
			v, err := re.Get("Sheet1", fmt.Sprintf("A%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if v.IsEmpty() {
				break
			}
			want := fmt.Sprintf("%d", 1000+i)
			if v.String() != want {
				t.Fatalf("%s: A%d = %q, want %q (recovered value corrupted)", desc, i, v.String(), want)
			}
			k = i
		}
		// Prefix property: everything after the first gap must be unset.
		for i := k + 1; i <= commands; i++ {
			v, err := re.Get("Sheet1", fmt.Sprintf("A%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsEmpty() {
				t.Fatalf("%s: recovered non-prefix state: A%d set but A%d empty", desc, i, k+1)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCrashFuzz fuzzes randomized kill points across the
// checkpoint path. Each trial issues n1 non-idempotent commands (INSERTs),
// checkpoints, issues n2 more, then reconstructs the on-disk state a crash
// would leave at each kill point:
//
//   - K1: during checkpoint, before the snapshot page write — the heap has
//     no snapshot yet, the full WAL survives;
//   - K2: after the snapshot sync, before the log reset — snapshot AND the
//     old WAL coexist, so recovery must not replay records the snapshot
//     already covers (the watermark rule);
//   - K3: after the log reset, before any new command;
//   - K4: a random truncation of the post-checkpoint WAL tail;
//   - K5: power cut inside the slot-map write, its head slot torn — once
//     under the first checkpoint (the old root has no map, so the open
//     scans) and once under a second one (the old root's map serves).
//
// In every case recovery must yield exactly a committed prefix — never a
// lost committed command before the kill point, never a duplicated insert,
// never a gap.
func TestCheckpointCrashFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		n1 := 3 + rng.Intn(10)
		n2 := 1 + rng.Intn(8)
		dir := filepath.Join(base, fmt.Sprintf("trial%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "book.dsp")
		cut := &slotMapCutFS{FS: vfs.OS(), heap: path}
		ds, err := OpenFile(path, Options{FS: cut})
		if err != nil {
			t.Fatal(err)
		}
		createSeq(t, ds)
		insert := func(i int) { insertSeq(t, ds, i) }
		for i := 1; i <= n1; i++ {
			insert(i)
		}
		ds.Wait()
		readBytes := func(p string) []byte {
			b, err := os.ReadFile(p)
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				t.Fatal(err)
			}
			return b
		}
		walPre := readBytes(WALPath(path))
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		heapPost := readBytes(path)
		for i := n1 + 1; i <= n1+n2; i++ {
			insert(i)
		}
		ds.Wait()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		heapFinal := readBytes(path)
		walTail := readBytes(WALPath(path))

		// verify reconstructs a crash state and checks the recovered table
		// is exactly the prefix 1..k for some k in [wantMin, wantMax].
		verify := func(desc string, heap, wal []byte, wantMin, wantMax int) {
			vdir := filepath.Join(dir, desc)
			if err := os.MkdirAll(vdir, 0o755); err != nil {
				t.Fatal(err)
			}
			vpath := filepath.Join(vdir, "book.dsp")
			if heap != nil {
				if err := os.WriteFile(vpath, heap, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(WALPath(vpath), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenFile(vpath, Options{})
			if err != nil {
				t.Fatalf("trial %d %s: recovery refused to open: %v", trial, desc, err)
			}
			defer re.Close()
			if errs := re.RecoveryErrors(); len(errs) != 0 {
				t.Fatalf("trial %d %s: recovery errors (duplicated or broken replay): %v", trial, desc, errs)
			}
			k, err := seqRows(re)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, desc, err)
			}
			if k < wantMin || k > wantMax {
				t.Fatalf("trial %d %s: recovered %d rows, want %d..%d", trial, desc, k, wantMin, wantMax)
			}
		}

		verify("pre-snapshot", nil, walPre, n1, n1)
		verify("pre-reset", heapPost, walPre, n1, n1)
		verify("post-reset", heapPost, nil, n1, n1)
		at := rng.Intn(len(walTail) + 1)
		verify("tail-truncate", heapFinal, walTail[:at], n1, n1+n2)
		verify("final", heapFinal, walTail, n1+n2, n1+n2)
		verify("torn-slot-map", cut.heapImg, cut.walImg, n1, n1)

		cut2 := &slotMapCutFS{FS: vfs.OS(), heap: path}
		ds, err = OpenFile(path, Options{FS: cut2})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		verify("torn-slot-map-gen2", cut2.heapImg, cut2.walImg, n1+n2, n1+n2)
	}
}

// slotMapCutFS cuts power inside a checkpoint's slot-map write. When the
// write of the map's head slot — the last slot of its chain to land —
// reaches the heap, it records the heap and the WAL as a crash at that
// instant leaves them, with the first sector of the write torn in, then
// lets the write through.
type slotMapCutFS struct {
	vfs.FS
	heap            string
	heapImg, walImg []byte
}

func (fs *slotMapCutFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || path != fs.heap {
		return f, err
	}
	return &slotMapCutFile{File: f, fs: fs}, nil
}

type slotMapCutFile struct {
	vfs.File
	fs *slotMapCutFS
}

func (f *slotMapCutFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.heapImg == nil && len(p) == pager.PageSize && bytes.HasPrefix(p[16:], []byte("DSSLOTM1")) {
		img, err := os.ReadFile(f.fs.heap)
		if err != nil {
			return 0, err
		}
		img = append(img, make([]byte, max(0, off+512-int64(len(img))))...)
		copy(img[off:], p[:512])
		if f.fs.walImg, err = os.ReadFile(WALPath(f.fs.heap)); err != nil {
			return 0, err
		}
		f.fs.heapImg = img
	}
	return f.File.WriteAt(p, off)
}

// TestIndexDDLSurvivesCheckpoint: CREATE INDEX must be part of both the WAL
// (replay) and the checkpoint snapshot, so planner-chosen index paths come
// back after recovery through either route.
func TestIndexDDLSurvivesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.dsp")
	ds, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.QueryScript(`
		CREATE TABLE m (id INT PRIMARY KEY, g INT);
		INSERT INTO m VALUES (1, 7), (2, 7), (3, 8);
		CREATE INDEX mg ON m (g);`); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck := func(stage string) {
		re, err := OpenFile(path, Options{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer re.Close()
		defs := re.DB().Indexes("m")
		if len(defs) != 1 || defs[0].Name != "mg" {
			t.Fatalf("%s: indexes after recovery = %+v", stage, defs)
		}
		plan, err := re.Query("EXPLAIN SELECT id FROM m WHERE g = 7")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if text := plan.Rows[0][0].String(); !strings.Contains(text, "index mg point (g)") {
			t.Fatalf("%s: EXPLAIN after recovery = %q", stage, text)
		}
		res, err := re.Query("SELECT id FROM m WHERE g = 7 ORDER BY id")
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("%s: index query after recovery: %v %v", stage, res, err)
		}
	}
	// Route 1: WAL replay (no checkpoint).
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("wal-replay")
	// Route 2: checkpoint snapshot.
	ds, err = OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("snapshot")
}

// TestHeapCorruptionFuzz is the heap-file arm of the crash-fuzz suite: random
// bytes of the page file are flipped and the workbook is reopened. Every
// trial must end in one of three detectable states — the open fails with a
// clear error, recovery reports per-command errors, or a query surfaces a
// checksum/read error — or the recovered data is exactly correct, whether
// it is read by full scan or through either index. What can never happen is
// a silent wrong or missing row: every table page and every index leaf page
// is CRC-sealed (tablestore, btree), the page catalog and sheet snapshot
// blobs are CRC-framed, and the ping-pong root slots are CRC-protected with
// a mirrored sibling.
func TestHeapCorruptionFuzz(t *testing.T) {
	const rows = 1200 // several leaf pages per index
	base := t.TempDir()
	path := filepath.Join(base, "book.dsp")
	ds, err := OpenFile(path, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	createSeq(t, ds)
	if _, err := ds.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		insertSeq(t, ds, i)
	}
	if _, err := ds.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A WAL tail on top of the checkpoint, so both recovery routes run.
	for i := rows + 1; i <= rows+10; i++ {
		insertSeq(t, ds, i)
	}
	ds.Wait()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	pristineHeap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pristineWAL, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	total := rows + 10

	rng := rand.New(rand.NewSource(1337)) // fixed seed: CI replays these trials
	detected := 0
	for trial := 0; trial < 50; trial++ {
		heap := append([]byte(nil), pristineHeap...)
		flips := 1 + rng.Intn(3)
		var desc strings.Builder
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(heap))
			bit := byte(1) << uint(rng.Intn(8))
			heap[pos] ^= bit
			fmt.Fprintf(&desc, "flip@%d/%#x ", pos, bit)
		}
		dir := filepath.Join(base, fmt.Sprintf("trial%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "book.dsp")
		if err := os.WriteFile(p, heap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(p), pristineWAL, 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := OpenFile(p, Options{})
		if err != nil {
			detected++
			continue // detected at open: acceptable
		}
		func() {
			defer re.Close()
			if len(re.RecoveryErrors()) != 0 {
				detected++
				return // detected during replay: acceptable
			}
			k, err := seqRows(re)
			if err != nil && !errors.Is(err, errSeqContent) {
				detected++
				return // detected at read time (checksum / page error): acceptable
			}
			// No error anywhere: the data must be EXACTLY right.
			if err != nil || k != total {
				t.Fatalf("%s: silently served %d rows (%v), want %d", desc.String(), k, err, total)
			}
		}()
	}
	if detected == 0 {
		t.Error("no trial detected its corruption: the flips are not reaching live pages")
	}
}
