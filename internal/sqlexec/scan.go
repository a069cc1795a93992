package sqlexec

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Row sources and the collect sink. Every stage of a SELECT — scan, join
// probe, residual filter, projection — is a rowSource: an ordered,
// partitioned stream of rows that 1..N pullers drain through
// pull(w, env, emit(part, row)). The one invariant every stage keeps is that
// concatenating the partitions in index order IS the serial row order, and
// that within a partition rows are emitted in that order. So "serial" is not
// a second implementation anywhere above storage: it is one puller, which
// claims the partitions in order (parRun(1) runs it on the calling
// goroutine); "parallel" is the same loop run by several pullers racing down
// an atomic partition cursor, with the sink filing what it receives under the
// partition index; "streaming" is one puller whose final emit may park on
// the consumer; and "materialised" is the collect sink.
//
// Base sources own partitions: a tableScan (morsels of a pinned snapshot),
// a rowSet (ranges of rows already in memory: RANGETABLE, a sub-select, the
// whole-walk result of an index path, a finished result) and an indexStream
// (read-committed index batches, one partition). Wrapping sources — the
// hash-join probe, the residual filter and the projector in select.go —
// transform what their input emits and pass its partition index through.

// emitFunc receives one row of partition part. Unless the source is stable
// the row is only valid during the call.
type emitFunc = func(part int, row []sheet.Value) error

// rowSource is one stage of the pipeline.
type rowSource interface {
	// shape reports how many pullers are worth running and how many
	// partitions they will drain. Per-puller state (compiled expression
	// trees carry scratch) exists for exactly that many pullers.
	shape() (workers, parts int)
	// stable reports whether emitted rows outlive the emit call; rows of an
	// unstable source must be copied to be retained.
	stable() bool
	// pull runs puller w (0 <= w < workers) until the partition queue
	// drains. A sink may run fewer pullers than shape allows — one puller
	// sees every partition, in order.
	//
	// dslint:parks(emit)
	pull(w int, env *execEnv, emit emitFunc) error
	// release drops what the source pinned (snapshot epochs).
	release()
}

// partitioned is the shape of a base source; the base sources embed it.
type partitioned struct {
	// workers is how many pullers are worth running: the caller's pool
	// width, or 1 when the input is below parMinRows.
	workers, parts int
	// rowsStable reports whether rows handed to emit outlive the callback
	// or sit in a buffer the source reuses.
	rowsStable bool
}

func (p *partitioned) shape() (int, int) { return p.workers, p.parts }
func (p *partitioned) stable() bool      { return p.rowsStable }
func (p *partitioned) release()          {}

// tableScan is one pinned, partitioned scan of a named table: pin a snapshot
// under a brief engine read lock, ask it for the partitions the zone-map
// bounds cannot rule out, and then, with no lock held, pull partitions
// through the layout's one tuple loop. Writers never wait behind a scan and
// a scan observes one point-in-time image of the table.
type tableScan struct {
	partitioned
	snap   tablestore.TableSnap
	cols   []int                  // physical columns read (nil = all)
	morsel []tablestore.Partition // kept partitions, in scan order
	// preds is the pushed conjuncts, compiled once per puller.
	preds [][]boundExpr
	// read / skipped are the physical pages the kept partitions cover and
	// the pages the zone maps spared.
	read, skipped int
	cursor        atomic.Int64
}

// planScan pins a snapshot of the source's table and partitions it for up to
// `workers` pullers. The engine lock is held only while the snapshot captures
// the store's structure; the row count that decides the puller count is the
// snapshot's, read under that lock. The caller releases the scan.
func (db *Database) planScan(s *srcState, workers int) *tableScan {
	_, scanCols := s.scanSchema()
	db.mu.RLock()
	snap := s.store.Snapshot()
	db.mu.RUnlock()
	workers, n := pullersFor(snap.RowCount(), workers)
	ts := &tableScan{snap: snap, cols: scanCols}
	ts.morsel, ts.read, ts.skipped = snap.Partitions(n, scanCols, s.zoneBounds)
	ts.partitioned = partitioned{workers: workers, parts: len(ts.morsel), rowsStable: snap.ScanColsStable(scanCols)}
	return ts
}

func (ts *tableScan) release() { ts.snap.Release() }

// pull claims partition indexes from the shared cursor until the queue
// drains, and passes every row of each claimed partition that satisfies the
// puller's predicates to emit. It runs concurrently with writers and must
// never acquire the engine lock — the snapshot serves frozen page versions
// without it — so emit may park.
//
// dslint:nolock(engine)
// dslint:parks(emit)
func (ts *tableScan) pull(w int, env *execEnv, emit emitFunc) error {
	preds := ts.preds[w]
	ctx := env.newRowCtx()
	poll := env.poller()
	for {
		i := int(ts.cursor.Add(1)) - 1
		if i >= len(ts.morsel) {
			return nil
		}
		var inner error
		err := ts.snap.ScanColsRange(ts.morsel[i], ts.cols, func(_ tablestore.RowID, row []sheet.Value) bool {
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

// rowSet is a source over rows already in memory, cut into contiguous ranges.
// The rows are private to this execution, so no lock is involved.
type rowSet struct {
	partitioned
	rows   [][]sheet.Value
	ranges [][2]int
	preds  [][]boundExpr // per puller; nil keeps every row
	cursor atomic.Int64
}

// newRowSet partitions rows for up to `workers` pullers; below parMinRows it
// is one partition and one puller.
func newRowSet(rows [][]sheet.Value, workers int) *rowSet {
	workers, n := pullersFor(len(rows), workers)
	rs := &rowSet{rows: rows, ranges: splitRows(len(rows), n)}
	rs.partitioned = partitioned{workers: workers, parts: len(rs.ranges), rowsStable: true}
	return rs
}

// pull is the rowSet's puller: the tableScan loop over in-memory ranges.
//
// dslint:nolock(engine)
// dslint:parks(emit)
func (rs *rowSet) pull(w int, env *execEnv, emit emitFunc) error {
	var preds []boundExpr
	if rs.preds != nil {
		preds = rs.preds[w]
	}
	ctx := env.newRowCtx()
	poll := env.poller()
	for {
		i := int(rs.cursor.Add(1)) - 1
		if i >= len(rs.ranges) {
			return nil
		}
		for _, row := range rs.rows[rs.ranges[i][0]:rs.ranges[i][1]] {
			if err := poll.check(); err != nil {
				return err
			}
			ctx.row = row
			keep, err := allPredicates(preds, ctx)
			if err != nil {
				return err
			}
			if keep {
				if err := emit(i, row); err != nil {
					return err
				}
			}
		}
	}
}

// openSource turns one planned FROM source into a rowSource with only the
// needed columns and the pushed conjuncts applied. A full scan is a
// tableScan; materialised rows are a rowSet; an index access path walks the
// index under the engine read lock for the whole walk and feeds the rows it
// collected as one partition (one consistent image, and the lock is never
// held across an emit that can park) — unless batched asks for the
// read-committed indexStream a parking consumer needs. live=false (a constant
// WHERE conjunct was false) reads nothing.
func (db *Database) openSource(s *srcState, live bool, workers int, batched bool, env *execEnv) (rowSource, error) {
	cols, scanCols := s.scanSchema()
	compile := func() ([]boundExpr, error) { return compilePredicates(s.pushed, cols, env) }
	switch {
	case !live:
		return newRowSet(nil, 1), nil
	case s.store == nil:
		rs := newRowSet(s.rows, workers)
		var err error
		rs.preds, err = perPuller(rs, compile)
		return rs, err
	case s.fullScan():
		ts := db.planScan(s, workers)
		if len(s.zoneBounds) > 0 {
			db.pagesRead.Add(int64(ts.read))
			db.pagesSkipped.Add(int64(ts.skipped))
		}
		var err error
		if ts.preds, err = perPuller(ts, compile); err != nil {
			ts.release()
			return nil, err
		}
		return ts, nil
	}
	// Predicates are compiled — RANGEVALUE folds included — before the
	// engine lock is taken.
	preds, err := compile()
	if err != nil {
		return nil, err
	}
	if batched {
		return &indexStream{partitioned: partitioned{workers: 1, parts: 1, rowsStable: true}, db: db, src: s, fetchCols: scanCols, preds: preds}, nil
	}
	db.mu.RLock()
	rows, err := db.walkIndexPath(s, preds, scanCols, env)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return newRowSet(rows, 1), nil
}

// walkIndexPath reads a source through its index access path: candidate
// RowIDs come from the B-tree and each is fetched and re-checked by
// fetchCandidates. Non-ordered paths yield RowID order (the full scan's
// order); ordered paths yield index order and may stop early.
// dslint:requires(engine)
func (db *Database) walkIndexPath(s *srcState, preds []boundExpr, fetchCols []int, env *execEnv) (rows [][]sheet.Value, err error) {
	ctx := env.newRowCtx()
	poll := env.poller()
	if !s.path.ordered {
		ids, err := db.collectPathIDsLocked(s.tbl.Name, s.path)
		if err != nil {
			return nil, err
		}
		return fetchCandidates(s, ids, fetchCols, preds, ctx, &poll, nil)
	}
	var keepErr error
	err = db.walkPathOrdered(s.tbl.Name, s.path, func(id tablestore.RowID) bool {
		rows, keepErr = fetchCandidates(s, []tablestore.RowID{id}, fetchCols, preds, ctx, &poll, rows)
		return keepErr == nil && (s.path.earlyLimit <= 0 || len(rows) < s.path.earlyLimit)
	})
	return rows, cmp.Or(keepErr, err)
}

// streamFetchBatch is how many index-path candidates an indexStream fetches
// and filters per engine read-lock acquisition. Rows are emitted between
// acquisitions, so the lock is never held while the consumer parks —
// concurrent writers interleave at batch boundaries and a consumer that
// writes mid-iteration cannot deadlock against its own stream.
const streamFetchBatch = 256

// indexStream is an index access path read for a consumer that may park:
// the candidate RowIDs are collected first (cheap — ids only), then fetched
// and re-checked in read-locked batches and emitted between batches. That is
// read-committed, where the whole-walk read of openSource is one image.
type indexStream struct {
	partitioned
	db        *Database
	src       *srcState
	fetchCols []int
	preds     []boundExpr
}

// dslint:parks(emit)
func (is *indexStream) pull(_ int, env *execEnv, emit emitFunc) error {
	ids, err := is.db.collectPathIDs(is.src.tbl.Name, is.src.path)
	if err != nil {
		return err
	}
	ctx := env.newRowCtx()
	poll := env.poller()
	// Sized by the candidates at hand: a point read must not pay — on the
	// heap or, worse, in this goroutine's fresh stack — for a full batch.
	batch := make([][]sheet.Value, 0, min(len(ids), streamFetchBatch))
	for len(ids) > 0 {
		n := min(len(ids), streamFetchBatch)
		is.db.mu.RLock()
		batch, err = fetchCandidates(is.src, ids[:n], is.fetchCols, is.preds, ctx, &poll, batch[:0])
		is.db.mu.RUnlock()
		if err != nil {
			return err
		}
		ids = ids[n:]
		for _, row := range batch {
			if err := poll.check(); err != nil {
				return err
			}
			if err := emit(0, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchCandidates point-reads index-path candidates with only the referenced
// columns and re-applies the pushed conjuncts, so the rows it appends to rows
// (the caller's to keep) are exactly those a full scan would keep, in id
// order. A candidate is dropped when the zone maps of its page(s) prove it
// cannot match (GetCols returns no row, nothing decoded), when it vanished
// between the index read and the fetch (no snapshot isolation at this level),
// or when a conjunct rejects it.
// dslint:requires(engine)
func fetchCandidates(s *srcState, ids []tablestore.RowID, fetchCols []int, preds []boundExpr, ctx *rowCtx, poll *poller, rows [][]sheet.Value) ([][]sheet.Value, error) {
	for _, id := range ids {
		if err := poll.check(); err != nil {
			return nil, err
		}
		row, err := s.store.GetCols(id, fetchCols, s.zoneBounds)
		if err != nil && !errors.Is(err, tablestore.ErrRowNotFound) {
			return nil, err
		}
		if row == nil || err != nil {
			continue
		}
		ctx.row = row
		keep, err := allPredicates(preds, ctx)
		if err != nil {
			return nil, err
		}
		if keep {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// collect is the materialising sink: it runs the source's pullers and
// returns every emitted row, partitions concatenated in index order — the
// serial row order at any puller count.
//
// dslint:nolock(engine)
func collect(src rowSource, env *execEnv) ([][]sheet.Value, error) {
	workers, parts := src.shape()
	stable := src.stable()
	results := make([][][]sheet.Value, parts)
	err := parRun(workers, func(w int) error {
		// Kept rows collect in a puller-local slice, filed under their
		// partition when the puller moves on: appending to results[part]
		// row by row would bounce the cache lines of adjacent slice headers
		// between pullers.
		var arena valueArena
		var out [][]sheet.Value
		cur := -1
		file := func() {
			if cur >= 0 {
				results[cur] = out
			}
		}
		err := src.pull(w, env, func(part int, row []sheet.Value) error {
			if part != cur {
				file()
				cur, out = part, nil
			}
			if !stable {
				row = arena.clone(row)
			}
			out = append(out, row)
			return nil
		})
		file()
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	return slices.Concat(results...), nil
}
