package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// TestSnapshotReadersUnderWriterAndCheckpointChurn is the concurrency stress
// for the snapshot-read path: parallel and streaming readers run against a
// durable workbook while a writer churns rows and explicit checkpoints
// relocate pages copy-on-write, all under -race. Every observed row must be
// internally coherent — the writer maintains qty == 2*id in every version it
// ever writes, so a torn or mixed-version row surfaces as a violated
// invariant — and the pool must end with no pinned epochs or retained
// versions once the readers drain. The writer also grows a second table, g,
// from just below the executor's parallel-scan floor (4096 rows) to well past
// it while the readers scan it, so the serial-vs-parallel decision is taken
// against a moving row count.
func TestSnapshotReadersUnderWriterAndCheckpointChurn(t *testing.T) {
	const rows = 6000
	const growStart = 4000
	path := filepath.Join(t.TempDir(), "stress.dsp")
	ds, err := OpenFile(path, Options{Workers: 4, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	if _, err := ds.Query(`CREATE TABLE t (id NUMBER PRIMARY KEY, qty NUMBER, tag STRING)`); err != nil {
		t.Fatal(err)
	}
	// g has no key, so growing it changes no index while a checkpoint
	// captures the page catalog (the writer bypasses the command path).
	if _, err := ds.Query(`CREATE TABLE g (id NUMBER, qty NUMBER, tag STRING)`); err != nil {
		t.Fatal(err)
	}
	db := ds.DB()
	insert := func(table string, i int) error {
		_, err := db.Insert(table, []sheet.Value{
			sheet.Number(float64(i)), sheet.Number(float64(i * 2)), sheet.String_("x"),
		})
		return err
	}
	for i := 0; i < rows; i++ {
		if err := insert("t", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < growStart; i++ {
		if err := insert("g", i); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// Churn: a writer rewriting rows (tag changes every pass, qty keeps the
	// invariant) and a checkpointer relocating durable pages copy-on-write
	// and freeing superseded blobs while snapshots are pinned.
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := i % rows
			if err := db.Update("t", tablestore.RowID(n+1), []sheet.Value{
				sheet.Number(float64(n)), sheet.Number(float64(n * 2)), sheet.String_(fmt.Sprintf("w%d", i)),
			}); err != nil {
				report(fmt.Errorf("writer: %w", err))
				return
			}
			if err := insert("g", growStart+i); err != nil {
				report(fmt.Errorf("writer: grow: %w", err))
				return
			}
		}
	}()
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ds.Checkpoint(); err != nil {
				report(fmt.Errorf("checkpoint: %w", err))
				return
			}
		}
	}()

	// Readers: materialising parallel scans + aggregation, plus the
	// lock-free streaming path. Bounded passes; churn stops when they drain.
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sess := db.NewSession(nil)
			for pass := 0; pass < 8; pass++ {
				res, err := sess.Query(`SELECT id, qty FROM t`)
				if err != nil {
					report(fmt.Errorf("reader: %w", err))
					return
				}
				if len(res.Rows) != rows {
					report(fmt.Errorf("reader saw %d rows, want %d", len(res.Rows), rows))
					return
				}
				for _, row := range res.Rows {
					if row[1].Num != row[0].Num*2 {
						report(fmt.Errorf("torn row: id=%v qty=%v", row[0], row[1]))
						return
					}
				}
				if _, err := sess.Query(`SELECT COUNT(*), SUM(qty) FROM t`); err != nil {
					report(fmt.Errorf("reader agg: %w", err))
					return
				}
				if res, err = sess.Query(`SELECT id, qty FROM g`); err != nil {
					report(fmt.Errorf("reader: growing table: %w", err))
					return
				}
				if len(res.Rows) < growStart {
					report(fmt.Errorf("reader saw %d rows of the growing table, want >= %d", len(res.Rows), growStart))
					return
				}
				for _, row := range res.Rows {
					if row[1].Num != row[0].Num*2 {
						report(fmt.Errorf("torn row in growing table: id=%v qty=%v", row[0], row[1]))
						return
					}
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		sess := db.NewSession(nil)
		scan, err := db.Prepare(`SELECT id, qty FROM t`)
		if err != nil {
			report(fmt.Errorf("stream reader: %w", err))
			return
		}
		for pass := 0; pass < 8; pass++ {
			it, err := sess.StreamPrepared(context.Background(), scan)
			if err != nil {
				report(fmt.Errorf("stream reader: %w", err))
				return
			}
			n := 0
			for it.Next() {
				row := it.Row()
				if row[1].Num != row[0].Num*2 {
					report(fmt.Errorf("stream torn row: id=%v qty=%v", row[0], row[1]))
					it.Close()
					return
				}
				n++
			}
			if err := it.Err(); err != nil {
				report(fmt.Errorf("stream reader: %w", err))
				return
			}
			if n != rows {
				report(fmt.Errorf("stream reader saw %d rows, want %d", n, rows))
				return
			}
		}
	}()

	readers.Wait()
	close(stop)
	churn.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	if pinned, retained := db.EpochStats(); pinned != 0 || retained != 0 {
		t.Fatalf("EpochStats after drain = (%d, %d), want (0, 0)", pinned, retained)
	}
}
