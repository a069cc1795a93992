package sqlexec

import (
	"context"
	"errors"
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// Streaming execution. StreamPrepared runs a SELECT on its own goroutine
// and hands rows to the caller through a bounded channel: a single-source
// statement (no joins, grouping, ordering or DISTINCT) streams straight out
// of the storage scan without materialising the result, stopping the scan as
// soon as the consumer goes away (Close / context cancellation) or the LIMIT
// is satisfied. Statements that need the whole input (joins, GROUP BY,
// ORDER BY, DISTINCT) materialise internally — the iterator surface and the
// cancellation behaviour are identical, only the memory profile differs.

// streamBuffer is the row-channel capacity: small enough to keep a slow
// consumer from pinning many rows, large enough to decouple producer and
// consumer scheduling.
const streamBuffer = 64

// errStreamDone is the internal sentinel a row sink returns to stop the
// producer early (LIMIT satisfied); it never escapes to callers.
var errStreamDone = errors.New("sqlexec: stream done")

// Rows is a streaming query result. It is not safe for concurrent use.
// Callers must exhaust it (Next returning false) or Close it; abandoning a
// Rows without either leaks the producer goroutine until the parent context
// fires.
type Rows struct {
	cols   []string
	ch     chan []sheet.Value
	cancel context.CancelFunc
	parent context.Context

	cur    []sheet.Value
	err    error // producer's terminal error; valid once ch is closed
	closed bool
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, reporting whether one is available. After
// Next returns false, Err distinguishes exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	row, ok := <-r.ch
	if !ok {
		r.cur = nil
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row (valid after a true Next; owned by the
// caller).
func (r *Rows) Row() []sheet.Value { return r.cur }

// Err returns the error that terminated iteration, if any. A Close before
// exhaustion is not an error; cancellation of the caller's context is.
func (r *Rows) Err() error {
	if r.err == nil {
		return nil
	}
	if r.closed && errors.Is(r.err, context.Canceled) && (r.parent == nil || r.parent.Err() == nil) {
		// The cancellation was our own Close, not the caller's context.
		return nil
	}
	return r.err
}

// Close stops the query, releases the producer goroutine and discards any
// unread rows. It is idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	// Drain until the producer closes the channel, so Close never leaves a
	// goroutine parked on a send.
	for range r.ch {
	}
	r.cur = nil
	return nil
}

// QueryStream prepares and streams a SELECT statement.
func (s *Session) QueryStream(ctx context.Context, sql string, args ...sheet.Value) (*Rows, error) {
	p, err := s.db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.StreamPrepared(ctx, p, args...)
}

// StreamPrepared executes a prepared SELECT, returning a streaming row
// iterator. Planning and binding errors surface here synchronously;
// row-production errors surface through Rows.Err.
func (s *Session) StreamPrepared(ctx context.Context, p *Prepared, args ...sheet.Value) (*Rows, error) {
	sel, ok := p.stmt.(*sqlparser.SelectStmt)
	if !ok || p.sel == nil {
		return nil, fmt.Errorf("sqlexec: cannot stream %T (only SELECT): %w", p.stmt, dberr.ErrUnsupported)
	}
	env, err := s.execEnv(ctx, p, args)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	env.ctx = cctx
	r := &Rows{
		ch:     make(chan []sheet.Value, streamBuffer),
		cancel: cancel,
		parent: ctx,
	}
	headerCh := make(chan []string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(r.ch)
		err := s.db.streamSelect(sel, p.sel, env,
			func(cols []string) {
				headerCh <- cols
			},
			func(row []sheet.Value) error {
				select {
				case r.ch <- row:
					return nil
				case <-cctx.Done():
					return cctx.Err()
				}
			})
		if err != nil && !errors.Is(err, errStreamDone) {
			r.err = err
		}
	}()
	select {
	case cols := <-headerCh:
		r.cols = cols
		return r, nil
	case <-done:
		// The producer already finished. A fast query may have sent its
		// header and completed before this select ran — both channels ready
		// means Go picks randomly, so drain the header explicitly rather
		// than returning a Rows with nil columns.
		select {
		case cols := <-headerCh:
			r.cols = cols
			return r, nil
		default:
		}
		// No header: the producer failed during planning/binding.
		cancel()
		if r.err != nil {
			return nil, r.err
		}
		return r, nil
	}
}

// streamSelect drives a SELECT to the header/yield sinks. header is called
// exactly once, before the first yield.
// dslint:parks(yield)
func (db *Database) streamSelect(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv, header func([]string), yield func([]sheet.Value) error) error {
	if stmt.From != nil && len(stmt.Joins) == 0 && !an.grouped && !stmt.Distinct && len(stmt.OrderBy) == 0 {
		return db.streamSimpleSelect(stmt, an, env, header, yield)
	}
	// Blocking shapes (joins, grouping, ordering, DISTINCT, table-less
	// SELECT) need the full input; materialise, then iterate.
	res, err := db.runSelect(stmt, an, env)
	if err != nil {
		return err
	}
	header(res.Columns)
	for _, row := range res.Rows {
		if err := env.check(); err != nil {
			return err
		}
		if err := yield(row); err != nil {
			return err
		}
	}
	return nil
}

// streamFetchBatch is how many index-path candidates the streaming fast path
// fetches, filters and projects per database read-lock acquisition. Rows
// are handed to the consumer between acquisitions, so the lock is never
// held while the producer parks on the channel — concurrent writers
// interleave at batch boundaries and a consumer that writes mid-iteration
// cannot deadlock against its own stream.
const streamFetchBatch = 256

// streamSimpleSelect streams scan → filter → project for a single-source
// statement without materialising the result. A full table scan is the
// kernel's serial puller (scan.go) over a pinned snapshot: no lock is held
// while the consumer parks and the reader observes one point-in-time image.
// An index access path collects its candidate RowIDs first (cheap — ids
// only), then fetches, filters and projects them in read-locked batches and
// yields between batches — read-committed, where the materialising executor
// holds the lock for the whole walk. A LIMIT stops after its quota of
// projected rows.
// dslint:parks(yield)
func (db *Database) streamSimpleSelect(stmt *sqlparser.SelectStmt, an *selectAnalysis, env *execEnv, header func([]string), yield func([]sheet.Value) error) error {
	plan, err := db.planInput(stmt, an, env)
	if err != nil {
		return err
	}
	src := plan.srcs[0]
	cols, scanCols := src.scanSchema()
	rel := &relation{cols: cols}
	items, names := expandItems(stmt, rel)
	cenv := env.compileEnv(cols)
	bound := make([]boundExpr, len(items))
	for i, item := range items {
		if bound[i], err = compileExpr(item.Expr, cenv); err != nil {
			return err
		}
	}
	// Pushed conjuncts filter candidates exactly as the materialised scan
	// would; with a single source the residual holds the conjuncts that
	// could not be pushed (error-capable ones), filtering after them.
	preds, err := compilePredicates(append(append([]sqlparser.Expr(nil), src.pushed...), plan.residual...), cols, env)
	if err != nil {
		return err
	}
	header(names)
	if !plan.live {
		return nil
	}
	offset := 0
	if stmt.Offset != nil {
		offset = *stmt.Offset
	}
	limit := -1
	if stmt.Limit != nil {
		limit = *stmt.Limit
	}
	if limit == 0 {
		return nil
	}

	// The row sink in two halves: project applies OFFSET and the select
	// list to a kept row and never parks, so the index path may run it
	// under the engine lock; deliver hands the projected row to the
	// consumer and counts it against LIMIT.
	pctx := env.newRowCtx()
	skipped, emitted := 0, 0
	project := func(row []sheet.Value) (out []sheet.Value, ok bool, err error) {
		if skipped < offset {
			skipped++
			return nil, false, nil
		}
		pctx.row = row
		out = make([]sheet.Value, len(bound))
		for i, be := range bound {
			if out[i], err = be.eval(pctx); err != nil {
				return nil, false, err
			}
		}
		return out, true, nil
	}
	deliver := func(out []sheet.Value) error {
		if err := yield(out); err != nil {
			return err
		}
		if emitted++; limit >= 0 && emitted >= limit {
			return errStreamDone
		}
		return nil
	}
	emit := func(row []sheet.Value) error {
		out, ok, err := project(row)
		if err != nil || !ok {
			return err
		}
		return deliver(out)
	}

	if src.store == nil {
		return filterRows(src.rows, preds, env, emit)
	}
	if src.fullScan() {
		ts := db.openScan(src, scanCols, 1)
		defer ts.snap.Release()
		return ts.pull(preds, env, func(_ int, row []sheet.Value) error { return emit(row) })
	}

	ids, err := db.collectPathIDs(src.tbl.Name, src.path)
	if err != nil {
		return err
	}
	ctx := env.newRowCtx()
	outBatch := make([][]sheet.Value, 0, streamFetchBatch)
	fetchBatch := func(batch []tablestore.RowID) error {
		db.mu.RLock()
		defer db.mu.RUnlock()
		for _, id := range batch {
			if err := env.check(); err != nil {
				return err
			}
			row, ok, err := fetchCandidate(src, id, scanCols, preds, ctx)
			if err == nil && ok {
				row, ok, err = project(row)
			}
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			outBatch = append(outBatch, row)
			if limit >= 0 && emitted+len(outBatch) >= limit {
				return nil
			}
		}
		return nil
	}
	for start := 0; start < len(ids); start += streamFetchBatch {
		end := start + streamFetchBatch
		if end > len(ids) {
			end = len(ids)
		}
		outBatch = outBatch[:0]
		if err := fetchBatch(ids[start:end]); err != nil {
			return err
		}
		for _, out := range outBatch {
			if err := env.check(); err != nil {
				return err
			}
			if err := deliver(out); err != nil {
				return err
			}
		}
	}
	return nil
}
