package sqlexec

import (
	"errors"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The table-scan kernel. Every full scan of a named table — materialising or
// streaming, serial or morsel-parallel, pruned by zone maps or not — is the
// same five steps: pin a snapshot under a brief engine read lock, ask it for
// the partitions the zone-map bounds cannot rule out, and then, with no lock
// held, pull partitions off a shared cursor through the layout's one tuple
// loop, polling for cancellation, re-applying the pushed conjuncts and
// handing the kept rows to emit. Writers never wait behind a scan and a scan
// observes one point-in-time image of the table.
//
// The variants differ only in who pulls and what emit does: a serial scan is
// one puller, so partitions arrive in order and emit sees rows in RowID
// order; a parallel scan is ts.workers pullers racing down the cursor, with
// emit filing rows under their partition index so the caller can concatenate
// them back into serial order; a streaming scan is a serial scan whose emit
// applies OFFSET/LIMIT and the projection and may park on the consumer.

// tableScan is one pinned, partitioned scan of a named table.
type tableScan struct {
	snap  tablestore.TableSnap
	cols  []int                  // physical columns read (nil = all)
	parts []tablestore.Partition // kept partitions, in scan order
	// workers is how many pullers are worth running: the caller's pool
	// width, or 1 when the snapshot is below parMinRows.
	workers int
	// stable reports whether rows handed to emit outlive the callback
	// (they alias decoded pages) or must be copied to be retained.
	stable bool
	// read / skipped are the physical pages the kept partitions cover and
	// the pages the zone maps spared.
	read, skipped int
	cursor        atomic.Int64
}

// planScan pins a snapshot of the source's table and partitions it for up to
// `workers` pullers. The engine lock is held only while the snapshot captures
// the store's structure; the row count that decides serial-vs-parallel is the
// snapshot's, read under that lock. The caller releases ts.snap.
func (db *Database) planScan(s *srcState, scanCols []int, workers int) *tableScan {
	db.mu.RLock()
	snap := s.store.Snapshot()
	db.mu.RUnlock()
	n := workers * morselsPerWorker
	if workers <= 1 || snap.RowCount() < parMinRows {
		workers, n = 1, 1
	}
	ts := &tableScan{snap: snap, cols: scanCols, workers: workers, stable: snap.ScanColsStable(scanCols)}
	ts.parts, ts.read, ts.skipped = snap.Partitions(n, scanCols, s.zoneBounds)
	return ts
}

// openScan is planScan for a scan that will run (EXPLAIN only plans): a scan
// that consulted zone maps charges its pruning outcome to ScanStats.
func (db *Database) openScan(s *srcState, scanCols []int, workers int) *tableScan {
	ts := db.planScan(s, scanCols, workers)
	if len(s.zoneBounds) > 0 {
		db.pagesRead.Add(int64(ts.read))
		db.pagesSkipped.Add(int64(ts.skipped))
	}
	return ts
}

// pull is one puller: it claims partition indexes from the shared cursor
// until the queue drains, and passes every row of each claimed partition
// that satisfies preds to emit, tagged with its partition index. preds must
// be the puller's own compile (bound trees carry scratch). It runs
// concurrently with writers and must never acquire the engine lock — the
// snapshot serves frozen page versions without it — so emit may park.
//
// dslint:nolock(engine)
// dslint:parks(emit)
func (ts *tableScan) pull(preds []boundExpr, env *execEnv, emit func(part int, row []sheet.Value) error) error {
	ctx := env.newRowCtx()
	poll := parPoll{ctx: envCtx(env)}
	for {
		i := int(ts.cursor.Add(1)) - 1
		if i >= len(ts.parts) {
			return nil
		}
		var inner error
		err := ts.snap.ScanColsRange(ts.parts[i], ts.cols, func(_ tablestore.RowID, row []sheet.Value) bool {
			if inner = poll.check(); inner != nil {
				return false
			}
			ctx.row = row
			var keep bool
			if keep, inner = allPredicates(preds, ctx); keep && inner == nil {
				inner = emit(i, row)
			}
			return inner == nil
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
	}
}

// fetchCandidate point-reads one index-path candidate with only the
// referenced columns and re-applies the pushed conjuncts, so the candidates
// kept are exactly the rows a full scan would keep. ok=false drops the
// candidate: the zone maps of its page(s) prove it cannot match (GetCols
// returns no row, nothing decoded), it vanished between the index read and
// the fetch (no snapshot isolation at this level), or a conjunct rejected it.
// The returned row is the caller's to keep.
// dslint:requires(engine)
func fetchCandidate(s *srcState, id tablestore.RowID, fetchCols []int, preds []boundExpr, ctx *rowCtx) (row []sheet.Value, ok bool, err error) {
	row, err = s.store.GetCols(id, fetchCols, s.zoneBounds)
	if row == nil || err != nil {
		if errors.Is(err, tablestore.ErrRowNotFound) {
			err = nil
		}
		return nil, false, err
	}
	ctx.row = row
	ok, err = allPredicates(preds, ctx)
	return row, ok, err
}

// filterRows passes the rows of a materialised source (RANGETABLE /
// sub-select) that satisfy preds to emit, in order. The rows are private to
// this execution, so no lock is involved and emit may park.
//
// dslint:parks(emit)
func filterRows(rows [][]sheet.Value, preds []boundExpr, env *execEnv, emit func(row []sheet.Value) error) error {
	ctx := env.newRowCtx()
	for _, row := range rows {
		if err := env.check(); err != nil {
			return err
		}
		ctx.row = row
		keep, err := allPredicates(preds, ctx)
		if err != nil {
			return err
		}
		if keep {
			if err := emit(row); err != nil {
				return err
			}
		}
	}
	return nil
}
